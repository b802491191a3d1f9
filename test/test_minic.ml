(* Tests for the MiniC front end: lexer, parser, types, pretty printer,
   type checker. *)

module Ctype = Rsti_minic.Ctype
module Ast = Rsti_minic.Ast
module Lexer = Rsti_minic.Lexer
module Parser = Rsti_minic.Parser
module Pretty = Rsti_minic.Pretty
module Tc = Rsti_minic.Typecheck
module Tast = Rsti_minic.Tast
module Token = Rsti_minic.Token

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let tokens src = List.map fst (Lexer.tokenize ~file:"t" src)

(* ------------------------------ lexer ------------------------------ *)

let test_lex_idents_keywords () =
  match tokens "int foo while NULL" with
  | [ Token.KW_int; Token.IDENT "foo"; Token.KW_while; Token.KW_null; Token.EOF ] -> ()
  | _ -> Alcotest.fail "token mismatch"

let test_lex_numbers () =
  match tokens "42 0x1F 7UL 3.5 1.0e3" with
  | [ Token.INT 42L; Token.INT 0x1FL; Token.INT 7L; Token.FLOAT a; Token.FLOAT b;
      Token.EOF ] ->
      Alcotest.(check (float 1e-9)) "3.5" 3.5 a;
      Alcotest.(check (float 1e-9)) "1e3" 1000. b
  | _ -> Alcotest.fail "number tokens"

let test_lex_strings_chars () =
  match tokens {|"a\nb" '\t' 'x'|} with
  | [ Token.STRING "a\nb"; Token.CHARLIT '\t'; Token.CHARLIT 'x'; Token.EOF ] -> ()
  | _ -> Alcotest.fail "string/char tokens"

let test_lex_comments () =
  checki "comments skipped" 2 (List.length (tokens "/* x */ 1 // y"))

let test_lex_operators () =
  match tokens "-> ++ <= >> && ... %" with
  | [ Token.ARROW; Token.PLUSPLUS; Token.LE; Token.SHR; Token.ANDAND;
      Token.ELLIPSIS; Token.PERCENT; Token.EOF ] -> ()
  | _ -> Alcotest.fail "operator tokens"

let test_lex_error_unterminated () =
  checkb "unterminated string raises" true
    (try ignore (tokens "\"abc") ; false with Lexer.Error _ -> true)

let test_lex_positions () =
  let toks = Lexer.tokenize ~file:"f.c" "a\n  b" in
  match toks with
  | (_, l1) :: (_, l2) :: _ ->
      checki "line 1" 1 l1.Rsti_minic.Loc.line;
      checki "line 2" 2 l2.Rsti_minic.Loc.line;
      checki "col 3" 3 l2.Rsti_minic.Loc.col
  | _ -> Alcotest.fail "positions"

(* ------------------------------ ctype ------------------------------ *)

let lookup_none _ = []

let test_ctype_strings () =
  checks "ptr" "int*" (Ctype.to_string (Ctype.Ptr Ctype.Int));
  checks "const ptr" "const void*" (Ctype.to_string (Ctype.Const (Ctype.Ptr Ctype.Void)));
  checks "struct" "struct node*" (Ctype.to_string (Ctype.Ptr (Ctype.Struct "node")));
  checks "fn ptr" "int (*)(long)"
    (Ctype.to_string
       (Ctype.Ptr (Ctype.Func { ret = Ctype.Int; params = [ Ctype.Long ]; variadic = false })))

let test_ctype_predicates () =
  checkb "is_pointer" true (Ctype.is_pointer (Ctype.Const (Ctype.Ptr Ctype.Char)));
  checkb "is_code_pointer" true
    (Ctype.is_code_pointer
       (Ctype.Ptr (Ctype.Func { ret = Ctype.Void; params = []; variadic = false })));
  checkb "data ptr is not code ptr" false (Ctype.is_code_pointer (Ctype.Ptr Ctype.Int));
  checkb "ptr-to-ptr" true (Ctype.is_pointer_to_pointer (Ctype.Ptr (Ctype.Ptr Ctype.Void)));
  checkb "plain ptr not pp" false (Ctype.is_pointer_to_pointer (Ctype.Ptr Ctype.Void))

let test_ctype_sizeof () =
  checki "char" 1 (Ctype.sizeof ~lookup:lookup_none Ctype.Char);
  checki "ptr" 8 (Ctype.sizeof ~lookup:lookup_none (Ctype.Ptr Ctype.Void));
  checki "array" 24 (Ctype.sizeof ~lookup:lookup_none (Ctype.Array (Ctype.Long, 3)));
  checki "char array packs" 5 (Ctype.sizeof ~lookup:lookup_none (Ctype.Array (Ctype.Char, 5)))

let test_struct_layout () =
  let lookup = function
    | "s" -> [ ("c", Ctype.Char); ("n", Ctype.Long); ("b", Ctype.Array (Ctype.Char, 3)) ]
    | _ -> raise Not_found
  in
  let off_c, _ = Ctype.field_offset ~lookup "s" "c" in
  let off_n, _ = Ctype.field_offset ~lookup "s" "n" in
  let off_b, _ = Ctype.field_offset ~lookup "s" "b" in
  checki "c at 0" 0 off_c;
  checki "n aligned to 8" 8 off_n;
  checki "b after n" 16 off_b;
  checki "size rounded" 24 (Ctype.sizeof ~lookup (Ctype.Struct "s"))

(* A hand-built lookup can describe what the type checker rejects: a
   struct reaching itself by value. Every layout walk must stop with
   the documented error instead of recursing forever. *)
let test_struct_layout_cycle () =
  let lookup = function
    | "a" -> [ ("n", Ctype.Long); ("b", Ctype.Struct "b") ]
    | "b" -> [ ("arr", Ctype.Array (Ctype.Struct "a", 2)) ]
    | "ok" -> [ ("next", Ctype.Ptr (Ctype.Struct "ok")); ("b", Ctype.Struct "leaf") ]
    | "leaf" -> [ ("x", Ctype.Long) ]
    | _ -> raise Not_found
  in
  let cyclic name f =
    Alcotest.check_raises name
      (Invalid_argument "Ctype.sizeof: struct 'a' contains itself by value") (fun () ->
        ignore (f ()))
  in
  cyclic "sizeof" (fun () -> Ctype.sizeof ~lookup (Ctype.Struct "a"));
  cyclic "field_offset" (fun () -> fst (Ctype.field_offset ~lookup "a" "b"));
  Alcotest.check_raises "through b"
    (Invalid_argument "Ctype.sizeof: struct 'b' contains itself by value") (fun () ->
      ignore (Ctype.sizeof ~lookup (Ctype.Array (Ctype.Struct "b", 1))));
  checki "self pointer is fine" 16 (Ctype.sizeof ~lookup (Ctype.Struct "ok"));
  checki "offset past a nested struct" 8 (fst (Ctype.field_offset ~lookup "ok" "b"))

let test_ctype_compatible () =
  checkb "void* both ways" true (Ctype.compatible (Ctype.Ptr Ctype.Void) (Ctype.Ptr Ctype.Int));
  checkb "distinct struct ptrs" false
    (Ctype.compatible (Ctype.Ptr (Ctype.Struct "a")) (Ctype.Ptr (Ctype.Struct "b")));
  checkb "const irrelevant" true
    (Ctype.compatible (Ctype.Const Ctype.Int) Ctype.Long)

(* ------------------------------ parser ----------------------------- *)

let parse src = Parser.parse ~file:"t.c" src

let first_func src =
  match List.find_map (function Ast.Gfunc f -> Some f | _ -> None) (parse src) with
  | Some f -> f
  | None -> Alcotest.fail "no function parsed"

let test_parse_function_pointer_declarator () =
  let prog = parse "int (*fp)(int);" in
  match prog with
  | [ Ast.Gvar d ] -> (
      match d.Ast.d_ty with
      | Ctype.Ptr (Ctype.Func { params = [ Ctype.Int ]; _ }) -> ()
      | t -> Alcotest.failf "got %s" (Ctype.to_string t))
  | _ -> Alcotest.fail "expected one global"

let test_parse_array_of_function_pointers () =
  match parse "long (*ops[5])(long a, long b);" with
  | [ Ast.Gvar d ] -> (
      match d.Ast.d_ty with
      | Ctype.Array (Ctype.Ptr (Ctype.Func _), 5) -> ()
      | t -> Alcotest.failf "got %s" (Ctype.to_string t))
  | _ -> Alcotest.fail "expected one global"

let test_parse_typedef_struct () =
  let prog = parse "typedef struct { long x; } ctx;\nctx* make(void) { return NULL; }" in
  checkb "struct + function" true
    (List.exists (function Ast.Gstruct s -> s.Ast.s_name = "ctx" | _ -> false) prog)

let test_parse_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  match e.Ast.desc with
  | Ast.Binop (Ast.Add, _, { desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_assoc () =
  let e = Parser.parse_expr_string "10 - 4 - 3" in
  match e.Ast.desc with
  | Ast.Binop (Ast.Sub, { desc = Ast.Binop (Ast.Sub, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "left associativity"

let test_parse_cast_vs_paren () =
  (match (Parser.parse_expr_string "(int) x").Ast.desc with
  | Ast.Cast (Ctype.Int, _) -> ()
  | _ -> Alcotest.fail "cast");
  match (Parser.parse_expr_string "(x) + 1").Ast.desc with
  | Ast.Binop (Ast.Add, _, _) -> ()
  | _ -> Alcotest.fail "paren expr"

let test_parse_compound_assign_desugar () =
  match (Parser.parse_expr_string "a += 2").Ast.desc with
  | Ast.Assign ({ desc = Ast.Var "a"; _ }, { desc = Ast.Binop (Ast.Add, _, _); _ }) -> ()
  | _ -> Alcotest.fail "compound assign"

let test_parse_for_loop () =
  let f = first_func "void f(void) { for (int i = 0; i < 3; i++) { } }" in
  match f.Ast.f_body with
  | [ { s = Ast.Sfor (Some _, Some _, Some _, _); _ } ] -> ()
  | _ -> Alcotest.fail "for shape"

let test_parse_dangling_else () =
  let f = first_func "void f(int a) { if (a) if (a) a = 1; else a = 2; }" in
  match f.Ast.f_body with
  | [ { s = Ast.Sif (_, [ { s = Ast.Sif (_, _, else_b); _ } ], []); _ } ] ->
      checki "else binds inner" 1 (List.length else_b)
  | _ -> Alcotest.fail "dangling else"

let test_parse_sizeof_forms () =
  (match (Parser.parse_expr_string "sizeof(long)").Ast.desc with
  | Ast.Sizeof_type Ctype.Long -> ()
  | _ -> Alcotest.fail "sizeof type");
  match (Parser.parse_expr_string "sizeof(x + 1)").Ast.desc with
  | Ast.Sizeof_expr _ -> ()
  | _ -> Alcotest.fail "sizeof expr"

let test_parse_switch () =
  let f =
    first_func
      "int f(int c) { switch (c) { case 1: case 2: return 1; default: break; } return 0; }"
  in
  match f.Ast.f_body with
  | [ { s = Ast.Sswitch (_, [ arm1; arm2 ]); _ }; _ ] ->
      Alcotest.(check (list int64)) "labels" [ 1L; 2L ] arm1.Ast.c_labels;
      checkb "default arm" true arm2.Ast.c_default
  | _ -> Alcotest.fail "switch shape"

let test_tc_switch_duplicate_label () =
  (try
     ignore
       (Tc.check_source
          "int main(void) { switch (1) { case 1: break; case 1: break; } return 0; }");
     Alcotest.fail "duplicate label accepted"
   with Tc.Error _ -> ())

let test_tc_switch_non_integer () =
  (try
     ignore
       (Tc.check_source
          "int main(void) { double x = 1.0; switch (x) { default: break; } return 0; }");
     Alcotest.fail "double scrutinee accepted"
   with Tc.Error _ -> ())

let test_tc_break_in_switch_ok () =
  ignore
    (Tc.check_source
       "int main(void) { switch (2) { case 2: break; } return 0; }")

let test_parse_member_chains () =
  match (Parser.parse_expr_string "a->b.c[1]").Ast.desc with
  | Ast.Index ({ desc = Ast.Member ({ desc = Ast.Arrow _; _ }, "c"); _ }, _) -> ()
  | _ -> Alcotest.fail "member chain"

let test_parse_error_reports_location () =
  checkb "error has loc" true
    (try ignore (parse "int f(void) { return }") ; false
     with Parser.Error (_, loc) -> loc.Rsti_minic.Loc.line = 1)

let test_parse_multi_declarator_rejected () =
  checkb "int a, b; rejected" true
    (try ignore (parse "void f(void) { int a, b; }") ; false
     with Parser.Error (m, _) -> String.length m > 0)

(* --------------------------- typechecker --------------------------- *)

let tc src = Tc.check_source ~file:"t.c" src

let tc_fails expected_substring src =
  try
    ignore (tc src);
    Alcotest.failf "expected type error containing %S" expected_substring
  with Tc.Error (msg, _) ->
    checkb
      (Printf.sprintf "error %S contains %S" msg expected_substring)
      true
      (let n = String.length expected_substring in
       let m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = expected_substring || go (i + 1)) in
       go 0)

let test_tc_ok_basic () =
  let p = tc "int main(void) { int x = 1; return x + 2; }" in
  checki "one function" 1 (List.length p.Tast.funcs)

let test_tc_unknown_var () = tc_fails "unknown" "int main(void) { return y; }"

let test_tc_const_assignment_rejected () =
  tc_fails "const" "int main(void) { const int x = 1; x = 2; return x; }"

let test_tc_void_deref_rejected () =
  tc_fails "void*" "extern void* malloc(long n);\nint main(void) { void* p = malloc(8); return *p ? 1 : 0; }"

let test_tc_incompatible_ptr_rejected () =
  tc_fails "incompatible"
    "struct a { long x; };\nstruct b { long x; };\nint main(void) { struct a* p = NULL; struct b* q = p; return q ? 1 : 0; }"

let test_tc_void_star_implicit () =
  ignore
    (tc
       "extern void* malloc(long n);\n\
        struct a { long x; };\n\
        int main(void) { struct a* p = malloc(8); void* v = p; return v ? 1 : 0; }")

let test_tc_null_to_pointer () =
  ignore (tc "int main(void) { char* p = NULL; long* q = 0; return p == 0 && q == 0; }")

let test_tc_wrong_arity () =
  tc_fails "arguments" "int f(int a) { return a; }\nint main(void) { return f(1, 2); }"

let test_tc_variadic_extern () =
  ignore
    (tc
       "extern int printf(const char* fmt, ...);\n\
        int main(void) { printf(\"%d %s\", 1, \"x\"); return 0; }")

let test_tc_break_outside_loop () = tc_fails "break" "int main(void) { break; return 0; }"

let test_tc_return_mismatch () =
  tc_fails "void" "void f(void) { return 1; }\nint main(void) { f(); return 0; }"

let test_tc_pointer_arith_types () =
  let p =
    tc
      "int main(void) { char buf[8]; char* p = buf; char* q = p + 3; return (int)(q - p); }"
  in
  checki "funcs" 1 (List.length p.Tast.funcs)

let test_tc_field_resolution () =
  tc_fails "no field"
    "struct s { long a; };\nint main(void) { struct s x; x.a = 1; return x.b; }"

(* By-value self-containment has no finite size; the frontend must reject
   it instead of handing later layers an infinitely deep layout. *)
let test_tc_struct_self_containment () =
  tc_fails "contains itself by value"
    "struct S { struct S s; };\nint main(void) { struct S x; return 0; }";
  tc_fails "contains itself by value"
    "struct A { long n; struct B b; };\nstruct B { struct A a; };\nint main(void) { return 0; }";
  tc_fails "contains itself by value"
    "struct T { struct T cells[2]; };\nint main(void) { return 0; }"

let test_tc_struct_self_pointer_ok () =
  ignore
    (tc
       "struct S { long v; struct S *next; };\nstruct U { struct S s[2]; struct U *up; };\nint main(void) { struct U u; u.s[0].next = NULL; return 0; }")

let test_tc_unique_var_ids () =
  let p =
    tc "int f(int a) { int x = a; return x; }\nint g(int a) { int x = a; return x; }"
  in
  let ids = ref [] in
  List.iter
    (fun (fn : Tast.tfunc) ->
      List.iter (fun (v : Tast.var) -> ids := v.v_id :: !ids) fn.tf_params;
      Tast.iter_func
        ~expr:(fun _ -> ())
        ~stmt:(function
          | Tast.Tsdecl (v, _) -> ids := v.Tast.v_id :: !ids
          | _ -> ())
        fn)
    p.Tast.funcs;
  let distinct = List.sort_uniq compare !ids in
  checki "all ids unique" (List.length !ids) (List.length distinct)

let test_tc_array_decay_in_call () =
  ignore
    (tc
       "extern long strlen(const char* s);\n\
        int main(void) { char buf[4]; buf[0] = 0; return (int) strlen(buf); }")

(* --------------------------- pretty/reparse ------------------------ *)

let prop_generated_roundtrip =
  QCheck.Test.make ~name:"pretty(parse(src)) reparses and typechecks" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let ast1 = Parser.parse ~file:"g.c" src in
      let printed = Pretty.program_to_string ast1 in
      let ast2 = Parser.parse ~file:"g2.c" printed in
      ignore (Tc.check ast2);
      (* shape stability: same number of globals both times *)
      List.length ast1 = List.length ast2)

let tests =
  [
    Alcotest.test_case "lex: idents and keywords" `Quick test_lex_idents_keywords;
    Alcotest.test_case "lex: numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex: strings and chars" `Quick test_lex_strings_chars;
    Alcotest.test_case "lex: comments" `Quick test_lex_comments;
    Alcotest.test_case "lex: operators" `Quick test_lex_operators;
    Alcotest.test_case "lex: unterminated string" `Quick test_lex_error_unterminated;
    Alcotest.test_case "lex: positions" `Quick test_lex_positions;
    Alcotest.test_case "ctype: rendering" `Quick test_ctype_strings;
    Alcotest.test_case "ctype: predicates" `Quick test_ctype_predicates;
    Alcotest.test_case "ctype: sizeof" `Quick test_ctype_sizeof;
    Alcotest.test_case "ctype: self-containing layout" `Quick test_struct_layout_cycle;
    Alcotest.test_case "ctype: struct layout" `Quick test_struct_layout;
    Alcotest.test_case "ctype: compatibility" `Quick test_ctype_compatible;
    Alcotest.test_case "parse: fn-ptr declarator" `Quick test_parse_function_pointer_declarator;
    Alcotest.test_case "parse: array of fn ptrs" `Quick test_parse_array_of_function_pointers;
    Alcotest.test_case "parse: typedef struct" `Quick test_parse_typedef_struct;
    Alcotest.test_case "parse: precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse: associativity" `Quick test_parse_assoc;
    Alcotest.test_case "parse: cast vs paren" `Quick test_parse_cast_vs_paren;
    Alcotest.test_case "parse: compound assign" `Quick test_parse_compound_assign_desugar;
    Alcotest.test_case "parse: for loop" `Quick test_parse_for_loop;
    Alcotest.test_case "parse: dangling else" `Quick test_parse_dangling_else;
    Alcotest.test_case "parse: sizeof forms" `Quick test_parse_sizeof_forms;
    Alcotest.test_case "parse: member chains" `Quick test_parse_member_chains;
    Alcotest.test_case "parse: switch" `Quick test_parse_switch;
    Alcotest.test_case "tc: switch duplicate label" `Quick test_tc_switch_duplicate_label;
    Alcotest.test_case "tc: switch non-integer" `Quick test_tc_switch_non_integer;
    Alcotest.test_case "tc: break in switch" `Quick test_tc_break_in_switch_ok;
    Alcotest.test_case "parse: error location" `Quick test_parse_error_reports_location;
    Alcotest.test_case "parse: multi-declarator rejected" `Quick test_parse_multi_declarator_rejected;
    Alcotest.test_case "tc: basic" `Quick test_tc_ok_basic;
    Alcotest.test_case "tc: unknown var" `Quick test_tc_unknown_var;
    Alcotest.test_case "tc: const assignment" `Quick test_tc_const_assignment_rejected;
    Alcotest.test_case "tc: void deref" `Quick test_tc_void_deref_rejected;
    Alcotest.test_case "tc: incompatible pointers" `Quick test_tc_incompatible_ptr_rejected;
    Alcotest.test_case "tc: void* implicit" `Quick test_tc_void_star_implicit;
    Alcotest.test_case "tc: NULL to pointer" `Quick test_tc_null_to_pointer;
    Alcotest.test_case "tc: arity" `Quick test_tc_wrong_arity;
    Alcotest.test_case "tc: variadic extern" `Quick test_tc_variadic_extern;
    Alcotest.test_case "tc: break outside loop" `Quick test_tc_break_outside_loop;
    Alcotest.test_case "tc: return mismatch" `Quick test_tc_return_mismatch;
    Alcotest.test_case "tc: pointer arithmetic" `Quick test_tc_pointer_arith_types;
    Alcotest.test_case "tc: field resolution" `Quick test_tc_field_resolution;
    Alcotest.test_case "tc: struct self-containment" `Quick test_tc_struct_self_containment;
    Alcotest.test_case "tc: self-referential struct pointer" `Quick test_tc_struct_self_pointer_ok;
    Alcotest.test_case "tc: unique var ids" `Quick test_tc_unique_var_ids;
    Alcotest.test_case "tc: array decay" `Quick test_tc_array_decay_in_call;
    QCheck_alcotest.to_alcotest prop_generated_roundtrip;
  ]
