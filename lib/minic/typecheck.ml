exception Error of string * Loc.t

let err loc fmt = Printf.ksprintf (fun msg -> raise (Error (msg, loc))) fmt

type env = {
  structs : (string, (string * Ctype.t) list) Hashtbl.t;
  funcs : (string, Ctype.signature) Hashtbl.t;   (* defined functions *)
  externs : (string, Ctype.t) Hashtbl.t;          (* declared, no body *)
  globals : (string, Tast.var) Hashtbl.t;
  mutable next_id : int;
  (* per-function state *)
  mutable scopes : (string * Tast.var) list list;
  mutable current_func : string option;
  mutable current_ret : Ctype.t;
  mutable loop_depth : int;
  mutable switch_depth : int;
}

let fresh_var env ~name ~ty ~kind ~loc =
  let id = env.next_id in
  env.next_id <- id + 1;
  {
    Tast.v_id = id;
    v_name = name;
    v_ty = ty;
    v_kind = kind;
    v_func = env.current_func;
    v_loc = loc;
  }

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> invalid_arg "Typecheck.pop_scope: no scope"

let bind_local env (v : Tast.var) =
  match env.scopes with
  | scope :: rest -> env.scopes <- ((v.v_name, v) :: scope) :: rest
  | [] -> invalid_arg "Typecheck.bind_local: no scope"

let lookup_var env name =
  let rec in_scopes = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with
        | Some v -> Some v
        | None -> in_scopes rest)
  in
  match in_scopes env.scopes with
  | Some v -> Some v
  | None -> Hashtbl.find_opt env.globals name

let struct_fields env loc name =
  match Hashtbl.find_opt env.structs name with
  | Some fields -> fields
  | None -> err loc "unknown struct '%s'" name

let lookup_field env loc sname fname =
  match List.assoc_opt fname (struct_fields env loc sname) with
  | Some ty -> ty
  | None -> err loc "struct %s has no field '%s'" sname fname

(* ---------------------------------------------------------------- *)
(* Conversions                                                       *)
(* ---------------------------------------------------------------- *)

let is_null_constant (e : Tast.texpr) =
  match e.tdesc with
  | Tast.Tint 0L -> true
  | Tast.Tcast (ty, { tdesc = Tast.Tint 0L; _ }) -> Ctype.is_pointer ty
  | _ -> false

(* Can [e] be implicitly used where type [want] is expected? Mirrors C's
   assignment conversions. Returns the possibly-adjusted expression. *)
let coerce env loc ~want (e : Tast.texpr) =
  ignore env;
  let have = e.Tast.tty in
  let have_s = Ctype.strip_all_quals have and want_s = Ctype.strip_all_quals want in
  if Ctype.equal have_s want_s then e
  else if Ctype.is_integer have && Ctype.is_integer want then
    (* same 64-bit representation; retype to the expected type so call
       sites carry the signature's types (CFI and lowering rely on it) *)
    { e with Tast.tty = want_s }
  else if
    (Ctype.is_integer have && Ctype.strip_const want_s = Ctype.Double)
    || (Ctype.strip_const have_s = Ctype.Double && Ctype.is_integer want)
  then { e with Tast.tdesc = Tast.Tcast (want_s, e); tty = want_s }
  else if Ctype.is_pointer want && is_null_constant e then
    { e with Tast.tdesc = Tast.Tcast (want_s, e); tty = want_s }
  else if Ctype.is_pointer have && Ctype.is_pointer want then begin
    (* void* converts both ways implicitly, like C. *)
    let hp = Ctype.strip_all_quals (Ctype.pointee have_s) in
    let wp = Ctype.strip_all_quals (Ctype.pointee want_s) in
    if hp = Ctype.Void || wp = Ctype.Void then
      { e with Tast.tdesc = Tast.Tcast (want_s, e); tty = want_s }
    else
      err loc "incompatible pointer types: have %s, want %s (insert a cast)"
        (Ctype.to_string have) (Ctype.to_string want)
  end
  else
    err loc "type mismatch: have %s, want %s" (Ctype.to_string have)
      (Ctype.to_string want)

(* Array-typed values decay to pointers to their first element. *)
let decay (e : Tast.texpr) =
  match Ctype.strip_const e.Tast.tty with
  | Ctype.Array (elem, _) -> (
      match e.Tast.tdesc with
      | Tast.Tread l -> { e with Tast.tdesc = Tast.Taddr l; tty = Ctype.Ptr elem }
      | _ -> { e with Tast.tty = Ctype.Ptr elem })
  | _ -> e

(* ---------------------------------------------------------------- *)
(* Expressions                                                       *)
(* ---------------------------------------------------------------- *)

let rec check_expr env (e : Ast.expr) : Tast.texpr =
  let loc = e.loc in
  let mk tdesc tty = { Tast.tdesc; tty; tloc = loc } in
  match e.desc with
  | Ast.Int_lit n -> mk (Tast.Tint n) Ctype.Long
  | Ast.Float_lit x -> mk (Tast.Tdouble x) Ctype.Double
  | Ast.Char_lit c -> mk (Tast.Tint (Int64.of_int (Char.code c))) Ctype.Char
  | Ast.Str_lit s -> mk (Tast.Tstr s) (Ctype.Ptr (Ctype.Const Ctype.Char))
  | Ast.Var name -> (
      match lookup_var env name with
      | Some v -> mk (Tast.Tread { Tast.ldesc = Tast.Lvar v; lty = v.v_ty; lloc = loc }) v.Tast.v_ty
      | None -> (
          match Hashtbl.find_opt env.funcs name with
          | Some sg -> mk (Tast.Tfunc_addr name) (Ctype.Ptr (Ctype.Func sg))
          | None -> (
              match Hashtbl.find_opt env.externs name with
              | Some (Ctype.Func sg) -> mk (Tast.Tfunc_addr name) (Ctype.Ptr (Ctype.Func sg))
              | Some ty ->
                  mk (Tast.Tread { Tast.ldesc = Tast.Lvar (extern_var env name ty loc);
                                   lty = ty; lloc = loc }) ty
              | None -> err loc "unknown identifier '%s'" name)))
  | Ast.Unop (Ast.Neg, a) ->
      let a = check_expr env a in
      if not (Ctype.is_integer a.tty || Ctype.strip_const a.tty = Ctype.Double) then
        err loc "negation needs a numeric operand";
      mk (Tast.Tneg a) a.tty
  | Ast.Unop (Ast.Lognot, a) ->
      let a = check_scalar env a in
      mk (Tast.Tlognot a) Ctype.Int
  | Ast.Unop (Ast.Bitnot, a) ->
      let a = check_expr env a in
      if not (Ctype.is_integer a.tty) then err loc "bitwise not needs an integer";
      mk (Tast.Tbitnot a) a.tty
  | Ast.Unop (Ast.AddrOf, a) ->
      let l = check_lval env a in
      mk (Tast.Taddr l) (Ctype.Ptr l.Tast.lty)
  | Ast.Unop (Ast.Deref, a) ->
      let l = check_lval env e in
      ignore a;
      mk (Tast.Tread l) l.Tast.lty
  | Ast.Member _ | Ast.Arrow _ | Ast.Index _ ->
      let l = check_lval env e in
      mk (Tast.Tread l) l.Tast.lty
  | Ast.Binop (op, a, b) -> check_binop env loc op a b
  | Ast.Assign (lhs, rhs) ->
      let l = check_lval env lhs in
      if Ctype.is_const l.Tast.lty then
        err loc "assignment to const lvalue of type %s" (Ctype.to_string l.Tast.lty);
      let r = decay (check_expr env rhs) in
      let r = coerce env loc ~want:l.Tast.lty r in
      mk (Tast.Tassign (l, r)) (Ctype.strip_const l.Tast.lty)
  | Ast.Call (callee, args) -> check_call env loc callee args
  | Ast.Cast (ty, a) ->
      let a = decay (check_expr env a) in
      check_cast_validity loc ty a;
      mk (Tast.Tcast (ty, a)) ty
  | Ast.Sizeof_type ty ->
      mk (Tast.Tint (Int64.of_int (sizeof env loc ty))) Ctype.Long
  | Ast.Sizeof_expr a ->
      let a = check_expr env a in
      mk (Tast.Tint (Int64.of_int (sizeof env loc a.Tast.tty))) Ctype.Long
  | Ast.Cond (c, a, b) ->
      let c = check_scalar env c in
      let a = decay (check_expr env a) in
      let b = decay (check_expr env b) in
      let ty =
        if Ctype.equal (Ctype.strip_all_quals a.tty) (Ctype.strip_all_quals b.tty)
        then Ctype.strip_all_quals a.tty
        else if Ctype.is_integer a.tty && Ctype.is_integer b.tty then Ctype.Long
        else if Ctype.is_pointer a.tty && is_null_constant b then a.tty
        else if Ctype.is_pointer b.tty && is_null_constant a then b.tty
        else if Ctype.is_pointer a.tty && Ctype.is_pointer b.tty then
          Ctype.Ptr Ctype.Void
        else
          err loc "incompatible branches of ?: (%s vs %s)" (Ctype.to_string a.tty)
            (Ctype.to_string b.tty)
      in
      mk (Tast.Tcond (c, a, b)) ty

and extern_var env name ty loc =
  (* Extern data objects get a stable pseudo-variable per name. *)
  match Hashtbl.find_opt env.globals ("extern$" ^ name) with
  | Some v -> v
  | None ->
      let saved = env.current_func in
      env.current_func <- None;
      let v = fresh_var env ~name ~ty ~kind:Tast.Kglobal ~loc in
      env.current_func <- saved;
      Hashtbl.replace env.globals ("extern$" ^ name) v;
      v

and check_scalar env (e : Ast.expr) =
  let t = decay (check_expr env e) in
  if not (Ctype.is_scalar t.Tast.tty) then
    err e.loc "expected a scalar value, got %s" (Ctype.to_string t.Tast.tty);
  t

and check_cast_validity loc ty (a : Tast.texpr) =
  let from = Ctype.strip_all_quals a.Tast.tty in
  let to_ = Ctype.strip_all_quals ty in
  let ok =
    match (from, to_) with
    | _, Ctype.Void -> true
    | (Ctype.Char | Ctype.Int | Ctype.Long | Ctype.Double),
      (Ctype.Char | Ctype.Int | Ctype.Long | Ctype.Double) ->
        true
    | Ctype.Ptr _, Ctype.Ptr _ -> true
    | Ctype.Ptr _, (Ctype.Char | Ctype.Int | Ctype.Long)
    | (Ctype.Char | Ctype.Int | Ctype.Long), Ctype.Ptr _ ->
        true
    | _ -> false
  in
  if not ok then
    err loc "invalid cast from %s to %s" (Ctype.to_string a.Tast.tty)
      (Ctype.to_string ty)

and check_binop env loc op a b : Tast.texpr =
  let mk tdesc tty = { Tast.tdesc; tty; tloc = loc } in
  match op with
  | Ast.Logand | Ast.Logor ->
      let a = check_scalar env a and b = check_scalar env b in
      mk (Tast.Tbinop (op, a, b)) Ctype.Int
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let a = decay (check_expr env a) and b = decay (check_expr env b) in
      let ok =
        (Ctype.is_integer a.tty && Ctype.is_integer b.tty)
        || (Ctype.strip_const a.tty = Ctype.Double
           && Ctype.strip_const b.tty = Ctype.Double)
        || (Ctype.is_pointer a.tty && (Ctype.is_pointer b.tty || is_null_constant b))
        || (Ctype.is_pointer b.tty && is_null_constant a)
        || (Ctype.is_integer a.tty && Ctype.strip_const b.tty = Ctype.Double)
        || (Ctype.is_integer b.tty && Ctype.strip_const a.tty = Ctype.Double)
      in
      if not ok then
        err loc "cannot compare %s with %s" (Ctype.to_string a.tty)
          (Ctype.to_string b.tty);
      mk (Tast.Tbinop (op, a, b)) Ctype.Int
  | Ast.Add | Ast.Sub ->
      let a = decay (check_expr env a) and b = decay (check_expr env b) in
      if Ctype.is_pointer a.tty && Ctype.is_integer b.tty then
        mk (Tast.Tbinop (op, a, b)) (Ctype.strip_const a.tty)
      else if op = Ast.Add && Ctype.is_integer a.tty && Ctype.is_pointer b.tty then
        mk (Tast.Tbinop (op, b, a)) (Ctype.strip_const b.tty)
      else if op = Ast.Sub && Ctype.is_pointer a.tty && Ctype.is_pointer b.tty then
        mk (Tast.Tbinop (op, a, b)) Ctype.Long
      else numeric_binop env loc op a b
  | Ast.Mul | Ast.Div | Ast.Mod ->
      let a = decay (check_expr env a) and b = decay (check_expr env b) in
      numeric_binop env loc op a b
  | Ast.Bitand | Ast.Bitor | Ast.Bitxor | Ast.Shl | Ast.Shr ->
      let a = decay (check_expr env a) and b = decay (check_expr env b) in
      if not (Ctype.is_integer a.tty && Ctype.is_integer b.tty) then
        err loc "bitwise operator needs integer operands";
      mk (Tast.Tbinop (op, a, b)) Ctype.Long

and numeric_binop _env loc op (a : Tast.texpr) (b : Tast.texpr) =
  let is_num t = Ctype.is_integer t || Ctype.strip_const t = Ctype.Double in
  if not (is_num a.tty && is_num b.tty) then
    err loc "arithmetic needs numeric operands (got %s and %s)"
      (Ctype.to_string a.tty) (Ctype.to_string b.tty);
  let ty =
    if Ctype.strip_const a.tty = Ctype.Double || Ctype.strip_const b.tty = Ctype.Double
    then Ctype.Double
    else Ctype.Long
  in
  { Tast.tdesc = Tast.Tbinop (op, a, b); tty = ty; tloc = loc }

and check_call env loc callee args : Tast.texpr =
  let mk tdesc tty = { Tast.tdesc; tty; tloc = loc } in
  let check_args sg args =
    let nparams = List.length sg.Ctype.params in
    let nargs = List.length args in
    if nargs < nparams || ((not sg.Ctype.variadic) && nargs > nparams) then
      err loc "wrong number of arguments: expected %d%s, got %d" nparams
        (if sg.Ctype.variadic then "+" else "")
        nargs;
    let fixed, extra =
      let rec split i = function
        | [] -> ([], [])
        | x :: rest ->
            if i < nparams then
              let f, e = split (i + 1) rest in
              (x :: f, e)
            else ([], x :: rest)
      in
      split 0 args
    in
    let fixed =
      List.map2
        (fun want arg -> coerce env loc ~want (decay (check_expr env arg)))
        sg.Ctype.params fixed
    in
    fixed @ List.map (fun a -> decay (check_expr env a)) extra
  in
  match callee.Ast.desc with
  | Ast.Var name when Hashtbl.mem env.funcs name ->
      let sg = Hashtbl.find env.funcs name in
      mk (Tast.Tcall (Tast.Cdirect name, check_args sg args)) sg.Ctype.ret
  | Ast.Var name when (match Hashtbl.find_opt env.externs name with
                      | Some (Ctype.Func _) -> true
                      | _ -> false) ->
      let sg =
        match Hashtbl.find env.externs name with
        | Ctype.Func sg -> sg
        | _ -> assert false
      in
      mk (Tast.Tcall (Tast.Cdirect name, check_args sg args)) sg.Ctype.ret
  | _ ->
      (* indirect call through a function pointer expression *)
      let f = decay (check_expr env callee) in
      let sg =
        match Ctype.strip_const f.Tast.tty with
        | Ctype.Ptr fty -> (
            match Ctype.strip_const fty with
            | Ctype.Func sg -> sg
            | _ -> err loc "called value is not a function pointer")
        | _ -> err loc "called value is not a function pointer"
      in
      mk (Tast.Tcall (Tast.Cindirect f, check_args sg args)) sg.Ctype.ret

(* ---------------------------------------------------------------- *)
(* Lvalues                                                           *)
(* ---------------------------------------------------------------- *)

and check_lval env (e : Ast.expr) : Tast.lval =
  let loc = e.loc in
  match e.desc with
  | Ast.Var name -> (
      match lookup_var env name with
      | Some v -> { Tast.ldesc = Tast.Lvar v; lty = v.Tast.v_ty; lloc = loc }
      | None -> (
          match Hashtbl.find_opt env.externs name with
          | Some ty when (match ty with Ctype.Func _ -> false | _ -> true) ->
              let v = extern_var env name ty loc in
              { Tast.ldesc = Tast.Lvar v; lty = ty; lloc = loc }
          | _ -> err loc "unknown variable '%s'" name))
  | Ast.Unop (Ast.Deref, a) -> (
      let p = decay (check_expr env a) in
      match Ctype.strip_const p.Tast.tty with
      | Ctype.Ptr inner ->
          if Ctype.strip_all_quals inner = Ctype.Void then
            err loc "cannot dereference void*";
          { Tast.ldesc = Tast.Lderef p; lty = inner; lloc = loc }
      | t -> err loc "cannot dereference non-pointer type %s" (Ctype.to_string t))
  | Ast.Member (base, fname) -> (
      let l = check_lval env base in
      match Ctype.strip_const l.Tast.lty with
      | Ctype.Struct sname ->
          let fty = lookup_field env loc sname fname in
          { Tast.ldesc = Tast.Lfield (l, sname, fname); lty = fty; lloc = loc }
      | t -> err loc "member access on non-struct type %s" (Ctype.to_string t))
  | Ast.Arrow (base, fname) -> (
      let p = decay (check_expr env base) in
      match Ctype.strip_const p.Tast.tty with
      | Ctype.Ptr inner -> (
          match Ctype.strip_const inner with
          | Ctype.Struct sname ->
              let fty = lookup_field env loc sname fname in
              { Tast.ldesc = Tast.Lfield_ptr (p, sname, fname); lty = fty; lloc = loc }
          | t -> err loc "-> on pointer to non-struct type %s" (Ctype.to_string t))
      | t -> err loc "-> on non-pointer type %s" (Ctype.to_string t))
  | Ast.Index (base, idx) -> (
      let p = decay (check_expr env base) in
      let i = decay (check_expr env idx) in
      if not (Ctype.is_integer i.Tast.tty) then err loc "array index must be an integer";
      match Ctype.strip_const p.Tast.tty with
      | Ctype.Ptr inner -> { Tast.ldesc = Tast.Lindex (p, i); lty = inner; lloc = loc }
      | t -> err loc "indexing a non-pointer type %s" (Ctype.to_string t))
  | Ast.Cast _ | Ast.Assign _ | Ast.Call _ | Ast.Int_lit _ | Ast.Float_lit _
  | Ast.Char_lit _ | Ast.Str_lit _ | Ast.Unop _ | Ast.Binop _ | Ast.Sizeof_type _
  | Ast.Sizeof_expr _ | Ast.Cond _ ->
      err loc "expression is not an lvalue"

and sizeof env loc ty =
  let lookup name = struct_fields env loc name in
  try Ctype.sizeof ~lookup ty
  with Invalid_argument m -> err loc "sizeof: %s" m

(* ---------------------------------------------------------------- *)
(* Statements                                                        *)
(* ---------------------------------------------------------------- *)

let rec check_stmt env (s : Ast.stmt) : Tast.tstmt =
  let loc = s.s_loc in
  match s.s with
  | Ast.Sexpr e -> Tast.Tsexpr (check_expr env e)
  | Ast.Sdecl d ->
      (match d.d_ty with
      | Ctype.Void -> err loc "cannot declare a void variable"
      | _ -> ());
      ignore (sizeof env loc d.d_ty);
      let init =
        Option.map
          (fun e ->
            let r = decay (check_expr env e) in
            coerce env loc ~want:d.d_ty r)
          d.Ast.d_init
      in
      let v = fresh_var env ~name:d.d_name ~ty:d.d_ty ~kind:Tast.Klocal ~loc in
      bind_local env v;
      Tast.Tsdecl (v, init)
  | Ast.Sif (c, a, b) ->
      let c = check_scalar env c in
      Tast.Tsif (c, check_block env a, check_block env b)
  | Ast.Swhile (c, b) ->
      let c = check_scalar env c in
      env.loop_depth <- env.loop_depth + 1;
      let b = check_block env b in
      env.loop_depth <- env.loop_depth - 1;
      Tast.Tswhile (c, b)
  | Ast.Sdo (b, c) ->
      env.loop_depth <- env.loop_depth + 1;
      let b = check_block env b in
      env.loop_depth <- env.loop_depth - 1;
      let c = check_scalar env c in
      Tast.Tsdo (b, c)
  | Ast.Sfor (init, cond, step, b) ->
      push_scope env;
      let init = Option.map (check_stmt env) init in
      let cond = Option.map (check_scalar env) cond in
      let step = Option.map (check_expr env) step in
      env.loop_depth <- env.loop_depth + 1;
      let b = check_block env b in
      env.loop_depth <- env.loop_depth - 1;
      pop_scope env;
      Tast.Tsfor (init, cond, step, b)
  | Ast.Sreturn None ->
      if Ctype.strip_const env.current_ret <> Ctype.Void then
        err loc "non-void function must return a value";
      Tast.Tsreturn None
  | Ast.Sreturn (Some e) ->
      if Ctype.strip_const env.current_ret = Ctype.Void then
        err loc "void function cannot return a value";
      let r = decay (check_expr env e) in
      Tast.Tsreturn (Some (coerce env loc ~want:env.current_ret r))
  | Ast.Sblock b -> Tast.Tsblock (check_block env b)
  | Ast.Sswitch (e, arms) ->
      let e = decay (check_expr env e) in
      if not (Ctype.is_integer e.Tast.tty) then
        err loc "switch scrutinee must be an integer";
      let seen = Hashtbl.create 8 in
      let default_seen = ref false in
      env.switch_depth <- env.switch_depth + 1;
      let arms =
        List.map
          (fun (a : Ast.switch_case) ->
            List.iter
              (fun v ->
                if Hashtbl.mem seen v then err loc "duplicate case label %Ld" v;
                Hashtbl.replace seen v ())
              a.c_labels;
            if a.c_default then begin
              if !default_seen then err loc "duplicate default label";
              default_seen := true
            end;
            {
              Tast.tc_labels = a.c_labels;
              tc_default = a.c_default;
              tc_body = check_block env a.c_body;
            })
          arms
      in
      env.switch_depth <- env.switch_depth - 1;
      Tast.Tsswitch (e, arms)
  | Ast.Sbreak ->
      if env.loop_depth = 0 && env.switch_depth = 0 then
        err loc "break outside of a loop or switch";
      Tast.Tsbreak
  | Ast.Scontinue ->
      if env.loop_depth = 0 then err loc "continue outside of a loop";
      Tast.Tscontinue

and check_block env (b : Ast.block) : Tast.tstmt list =
  push_scope env;
  let out = List.map (check_stmt env) b in
  pop_scope env;
  out

(* ---------------------------------------------------------------- *)
(* Program                                                           *)
(* ---------------------------------------------------------------- *)

(* A struct that contains itself by value — directly, through another
   struct, or through an array element — has no finite size; every
   later layer that walks field layouts would recurse forever. Pointers
   break the cycle, so [struct S { struct S *next; }] is fine. Runs
   after every struct is registered, so mutual cycles are seen. *)
let check_struct_cycles env prog =
  let done_ = Hashtbl.create 16 in
  let rec by_value = function
    | Ctype.Const t | Ctype.Array (t, _) -> by_value t
    | Ctype.Struct n -> [ n ]
    | _ -> []
  in
  let rec visit loc path name =
    if List.mem name path then
      err loc "struct '%s' contains itself by value" name;
    if not (Hashtbl.mem done_ name) then begin
      (match Hashtbl.find_opt env.structs name with
      | Some fields ->
          List.iter
            (fun (_, ty) -> List.iter (visit loc (name :: path)) (by_value ty))
            fields
      | None -> ());
      Hashtbl.replace done_ name ()
    end
  in
  List.iter
    (function
      | Ast.Gstruct sd -> visit sd.Ast.s_loc [] sd.Ast.s_name | _ -> ())
    prog

let check (prog : Ast.program) : Tast.program =
  let env =
    {
      structs = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      externs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      next_id = 0;
      scopes = [];
      current_func = None;
      current_ret = Ctype.Void;
      loop_depth = 0;
      switch_depth = 0;
    }
  in
  (* Pass 1: signatures. *)
  let structs = ref [] in
  List.iter
    (function
      | Ast.Gstruct sd ->
          if Hashtbl.mem env.structs sd.s_name then
            err sd.s_loc "duplicate struct '%s'" sd.s_name;
          Hashtbl.replace env.structs sd.s_name sd.s_fields;
          structs := (sd.Ast.s_name, sd.Ast.s_fields) :: !structs
      | Ast.Gfunc f ->
          if Hashtbl.mem env.funcs f.f_name then
            err f.f_loc "duplicate function '%s'" f.f_name;
          Hashtbl.replace env.funcs f.f_name
            { Ctype.ret = f.f_ret; params = List.map snd f.f_params; variadic = false }
      | Ast.Gvar d ->
          if Hashtbl.mem env.globals d.d_name then
            err d.d_loc "duplicate global '%s'" d.d_name;
          let v = fresh_var env ~name:d.d_name ~ty:d.d_ty ~kind:Tast.Kglobal ~loc:d.d_loc in
          Hashtbl.replace env.globals d.d_name v
      | Ast.Gextern (name, ty, _) -> Hashtbl.replace env.externs name ty)
    prog;
  check_struct_cycles env prog;
  (* Pass 2: bodies and initializers. *)
  let globals = ref [] and funcs = ref [] in
  List.iter
    (function
      | Ast.Gstruct _ -> ()
      | Ast.Gvar d ->
          let v = Hashtbl.find env.globals d.d_name in
          let init =
            Option.map
              (fun e ->
                let r = decay (check_expr env e) in
                coerce env d.d_loc ~want:d.d_ty r)
              d.Ast.d_init
          in
          globals := (v, init) :: !globals
      | Ast.Gextern _ -> ()
      | Ast.Gfunc f ->
          env.current_func <- Some f.f_name;
          env.current_ret <- f.f_ret;
          env.loop_depth <- 0;
          push_scope env;
          let params =
            List.map
              (fun (name, ty) ->
                let v = fresh_var env ~name ~ty ~kind:Tast.Kparam ~loc:f.f_loc in
                bind_local env v;
                v)
              f.Ast.f_params
          in
          let body = check_block env f.Ast.f_body in
          pop_scope env;
          env.current_func <- None;
          funcs :=
            {
              Tast.tf_name = f.Ast.f_name;
              tf_ret = f.Ast.f_ret;
              tf_params = params;
              tf_body = body;
              tf_loc = f.Ast.f_loc;
            }
            :: !funcs)
    prog;
  {
    Tast.structs = List.rev !structs;
    globals = List.rev !globals;
    externs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.externs [];
    funcs = List.rev !funcs;
  }

let check_source ?(file = "<string>") src = check (Parser.parse ~file src)
