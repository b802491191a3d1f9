type t =
  | Void
  | Char
  | Int
  | Long
  | Double
  | Const of t
  | Ptr of t
  | Struct of string
  | Func of signature
  | Array of t * int

and signature = { ret : t; params : t list; variadic : bool }

let rec equal a b =
  match (a, b) with
  | Void, Void | Char, Char | Int, Int | Long, Long | Double, Double -> true
  | Const a, Const b | Ptr a, Ptr b -> equal a b
  | Struct a, Struct b -> String.equal a b
  | Func a, Func b ->
      equal a.ret b.ret
      && List.length a.params = List.length b.params
      && List.for_all2 equal a.params b.params
      && a.variadic = b.variadic
  | Array (a, n), Array (b, m) -> n = m && equal a b
  | (Void | Char | Int | Long | Double | Const _ | Ptr _ | Struct _ | Func _ | Array _), _
    -> false

let rec strip_const = function Const t -> strip_const t | t -> t

let rec strip_all_quals = function
  | Const t -> strip_all_quals t
  | Ptr t -> Ptr (strip_all_quals t)
  | Array (t, n) -> Array (strip_all_quals t, n)
  | Func s ->
      Func
        {
          ret = strip_all_quals s.ret;
          params = List.map strip_all_quals s.params;
          variadic = s.variadic;
        }
  | (Void | Char | Int | Long | Double | Struct _) as t -> t

let is_const = function Const _ -> true | _ -> false

let declared_read_only t =
  match t with
  | Const _ -> true
  | Ptr (Const _) -> true
  | _ -> false

let is_pointer t = match strip_const t with Ptr _ -> true | _ -> false

let is_code_pointer t =
  match strip_const t with
  | Ptr p -> ( match strip_const p with Func _ -> true | _ -> false)
  | _ -> false

let is_pointer_to_pointer t =
  match strip_const t with
  | Ptr p -> ( match strip_const p with Ptr _ -> true | _ -> false)
  | _ -> false

let pointee t =
  match strip_const t with
  | Ptr p -> p
  | _ -> invalid_arg "Ctype.pointee: not a pointer"

let is_integer t =
  match strip_const t with Char | Int | Long -> true | _ -> false

let is_scalar t =
  match strip_const t with
  | Char | Int | Long | Double | Ptr _ -> true
  | Void | Const _ | Struct _ | Func _ | Array _ -> false

(* [seen] holds the structs whose layout is being computed further up
   the recursion: meeting one of them again means a struct contains
   itself by value, which has no finite size. *)
let rec size_in ~lookup seen t =
  match t with
  | Void -> invalid_arg "Ctype.sizeof: void has no size"
  | Char -> 1
  | Int | Long | Double | Ptr _ -> 8
  | Const t -> size_in ~lookup seen t
  | Struct name -> max 8 (snd (struct_layout ~lookup seen name))
  | Func _ -> invalid_arg "Ctype.sizeof: function type has no size"
  | Array (t, n) -> n * size_in ~lookup seen t

and struct_layout ~lookup seen name =
  if List.mem name seen then
    invalid_arg (Printf.sprintf "Ctype.sizeof: struct '%s' contains itself by value" name);
  let seen = name :: seen in
  (* Declaration order; 8-byte alignment except chars / char arrays pack. *)
  let align off t =
    let needs8 =
      match strip_const t with
      | Char -> false
      | Array (e, _) -> ( match strip_const e with Char -> false | _ -> true)
      | _ -> true
    in
    if needs8 then (off + 7) / 8 * 8 else off
  in
  let rec go off acc = function
    | [] -> (List.rev acc, (off + 7) / 8 * 8)
    | (name, ty) :: rest ->
        let off = align off ty in
        go (off + size_in ~lookup seen ty) ((name, ty, off) :: acc) rest
  in
  go 0 [] (lookup name)

let sizeof ~lookup t = size_in ~lookup [] t

let field_offset ~lookup sname fname =
  let fields, _ = struct_layout ~lookup [] sname in
  let rec find = function
    | [] -> raise Not_found
    | (name, ty, off) :: rest -> if String.equal name fname then (off, ty) else find rest
  in
  find fields

let rec to_string = function
  | Void -> "void"
  | Char -> "char"
  | Int -> "int"
  | Long -> "long"
  | Double -> "double"
  | Const t -> "const " ^ to_string t
  | Struct name -> "struct " ^ name
  | Ptr (Func s) ->
      Printf.sprintf "%s (*)(%s)" (to_string s.ret) (params_string s)
  | Ptr t -> to_string t ^ "*"
  | Func s -> Printf.sprintf "%s ()(%s)" (to_string s.ret) (params_string s)
  | Array (t, n) -> Printf.sprintf "%s[%d]" (to_string t) n

and params_string s =
  let ps = List.map to_string s.params in
  let ps = if s.variadic then ps @ [ "..." ] else ps in
  if ps = [] then "void" else String.concat ", " ps

let pp fmt t = Format.pp_print_string fmt (to_string t)

let compatible a b =
  let a = strip_all_quals a and b = strip_all_quals b in
  if equal a b then true
  else
    match (a, b) with
    | Ptr Void, Ptr _ | Ptr _, Ptr Void -> true
    | (Char | Int | Long), (Char | Int | Long) -> true
    | Double, (Char | Int | Long) | (Char | Int | Long), Double -> true
    | Ptr _, (Char | Int | Long) | (Char | Int | Long), Ptr _ ->
        (* Integer/pointer conversions require an explicit cast in MiniC;
           the checker special-cases the literal 0 as a null constant. *)
        false
    | _ -> false
