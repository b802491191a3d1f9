(* Tests for the virtual machine: memory, interpreter semantics,
   builtins, traps, cycle accounting, attacker API. *)

module Memory = Rsti_machine.Memory
module Interp = Rsti_machine.Interp
module Cost = Rsti_machine.Cost
module Layout = Rsti_machine.Layout
module Pipeline = Rsti_engine.Pipeline

let compiled src = Pipeline.compile (Pipeline.source ~file:"t.c" src)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.check Alcotest.int64
let checks = Alcotest.(check string)

(* ------------------------------ memory ----------------------------- *)

let test_mem_u8_roundtrip () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:16;
  Memory.write_u8 m 0x1000L 0xAB;
  checki "u8" 0xAB (Memory.read_u8 m 0x1000L)

let test_mem_u64_roundtrip () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:16;
  Memory.write_u64 m 0x1008L 0xDEADBEEF12345678L;
  check64 "u64" 0xDEADBEEF12345678L (Memory.read_u64 m 0x1008L)

let test_mem_page_straddle () =
  let m = Memory.create () in
  Memory.map m ~addr:0xFF8L ~size:16;
  Memory.write_u64 m 0xFFCL 0x1122334455667788L;
  check64 "straddling u64" 0x1122334455667788L (Memory.read_u64 m 0xFFCL)

let test_mem_unmapped_faults () =
  let m = Memory.create () in
  checkb "unmapped" true
    (try ignore (Memory.read_u8 m 0x5000L) ; false
     with Memory.Fault (Memory.Unmapped _) -> true)

let test_mem_non_canonical_faults () =
  let m = Memory.create () in
  checkb "non-canonical" true
    (try ignore (Memory.read_u64 m 0x00FF_0000_0000_1000L) ; false
     with Memory.Fault (Memory.Non_canonical _) -> true)

let test_mem_read_only () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:64;
  Memory.protect m ~addr:0x1000L ~size:64;
  checkb "write to RO faults" true
    (try Memory.write_u64 m 0x1000L 1L ; false
     with Memory.Fault (Memory.Read_only _) -> true);
  (* raw writes (the runtime's own) bypass protection *)
  Memory.write_u64_raw m 0x1000L 7L;
  check64 "raw write ok" 7L (Memory.read_u64 m 0x1000L)

let test_mem_cstring () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:64;
  Memory.write_cstring m 0x1000L "hello";
  checks "cstring" "hello" (Memory.read_cstring m 0x1000L);
  checki "nul" 0 (Memory.read_u8 m 0x1005L)

(* ---------------------------- interpreter --------------------------- *)

let run ?attacks src = Pipeline.run_baseline ?attacks (compiled src)

let exit_code src =
  match (run src).Interp.status with
  | Interp.Exited n -> n
  | Interp.Trapped t -> Alcotest.failf "trap: %s" (Interp.trap_to_string t)

let test_interp_arith () =
  check64 "arith" 14L (exit_code "int main(void) { return 2 + 3 * 4; }")

let test_interp_division_truncates () =
  check64 "C division" (-2L) (exit_code "int main(void) { return -7 / 3; }");
  check64 "C modulo" (-1L) (exit_code "int main(void) { return -7 % 3; }")

let test_interp_div_by_zero_traps () =
  match (run "int main(void) { int z = 0; return 1 / z; }").Interp.status with
  | Interp.Trapped (Interp.Div_by_zero _) -> ()
  | _ -> Alcotest.fail "expected div-by-zero trap"

let test_interp_fib () =
  check64 "fib(10)" 55L
    (exit_code
       "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
        int main(void) { return fib(10); }")

let test_interp_floats () =
  check64 "double math" 7L
    (exit_code "int main(void) { double x = 2.5; double y = 0.5; return (int)(x / y + 2.0); }")

let test_interp_char_semantics () =
  check64 "char ops" 1L
    (exit_code
       "int main(void) { char buf[4]; buf[0] = 'a'; buf[1] = 'b';\n\
        return buf[1] - buf[0]; }")

let test_interp_short_circuit_effects () =
  (* the right-hand side must not run when the left decides *)
  check64 "short circuit" 0L
    (exit_code
       "int hits = 0;\nint bump(void) { hits = hits + 1; return 1; }\n\
        int main(void) { int a = 0; if (a && bump()) { } if (!a || bump()) { }\n\
        return hits; }")

let test_interp_for_continue () =
  (* continue must still execute the step expression *)
  check64 "continue hits step" 20L
    (exit_code
       "int main(void) { int s = 0;\n\
        for (int i = 0; i < 5; i++) { if (i == 2) { continue; } s += 10; }\n\
        return s / 2; }")

let test_interp_do_while () =
  check64 "do-while runs once" 1L
    (exit_code "int main(void) { int n = 0; do { n++; } while (n < 1); return n; }")

let test_interp_cond_expr () =
  check64 "ternary" 5L
    (exit_code "int main(void) { int a = 3; return a > 2 ? 5 : 9; }")

let test_interp_globals_initialized () =
  check64 "global init order" 12L
    (exit_code "int a = 5;\nint b = 7;\nint main(void) { return a + b; }")

let test_interp_function_pointers () =
  check64 "indirect call" 9L
    (exit_code
       "int sq(int x) { return x * x; }\n\
        int main(void) { int (*f)(int) = sq; return f(3); }")

let test_interp_strings_builtins () =
  let o =
    run
      "extern int printf(const char* f, ...);\n\
       extern long strlen(const char* s);\n\
       extern int strcmp(const char* a, const char* b);\n\
       extern char* strstr(const char* h, const char* n);\n\
       int main(void) {\n\
       printf(\"len=%ld cmp=%d found=%d\\n\", strlen(\"abcd\"),\n\
       strcmp(\"a\", \"b\") < 0 ? 1 : 0, strstr(\"hello\", \"ll\") ? 1 : 0);\n\
       return 0; }"
  in
  checks "builtin output" "len=4 cmp=1 found=1\n" o.Interp.output

let test_interp_memcpy_memset () =
  check64 "memcpy/memset" 0L
    (exit_code
       "extern void* memset(void* p, int c, long n);\n\
        extern void* memcpy(void* d, const void* s, long n);\n\
        int main(void) { char a[8]; char b[8];\n\
        memset(a, 65, 8); memcpy(b, a, 8);\n\
        return b[7] == 65 ? 0 : 1; }")

let test_interp_exit_builtin () =
  match (run "extern void exit(int c);\nint main(void) { exit(42); return 0; }").status with
  | Interp.Exited 42L -> ()
  | _ -> Alcotest.fail "exit(42)"

let test_interp_malloc_zeroed () =
  check64 "heap zeroed" 0L
    (exit_code
       "extern void* malloc(long n);\n\
        int main(void) { long* p = (long*) malloc(64); return (int) p[3]; }")

let test_interp_stack_overflow () =
  match
    (run "int boom(int n) { int pad[64]; pad[0] = n; return boom(n + pad[0]); }\n\
          int main(void) { return boom(1); }")
      .status
  with
  | Interp.Trapped Interp.Stack_overflow -> ()
  | s ->
      Alcotest.failf "expected stack overflow, got %s"
        (match s with
        | Interp.Exited n -> Printf.sprintf "exit %Ld" n
        | Interp.Trapped t -> Interp.trap_to_string t)

let test_interp_step_limit () =
  (* step_limit is an Interp-level knob, so build the machine by hand
     from the pipeline's compiled module *)
  let m = Pipeline.ir (compiled "int main(void) { while (1) { } return 0; }") in
  let vm = Interp.create m in
  match (Interp.run ~step_limit:10_000 vm).status with
  | Interp.Trapped Interp.Step_limit_exceeded -> ()
  | _ -> Alcotest.fail "expected step limit"

let test_interp_cycles_positive_and_counted () =
  let o = run "int main(void) { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }" in
  checkb "cycles > instrs" true (o.Interp.cycles > o.Interp.counts.instrs);
  checkb "loads counted" true (o.Interp.counts.loads > 0)

let test_interp_snprintf () =
  let o =
    run
      "extern int snprintf(char* buf, long n, const char* f, ...);\n\
       extern int printf(const char* f, ...);\n\
       int main(void) { char b[16]; snprintf(b, 16, \"%d-%d\", 4, 2);\n\
       printf(\"%s\", b); return 0; }"
  in
  checks "snprintf" "4-2" o.Interp.output

let test_interp_machine_single_use () =
  let m = Pipeline.ir (compiled "int main(void) { return 0; }") in
  let vm = Interp.create m in
  ignore (Interp.run vm);
  checkb "second run rejected" true
    (try ignore (Interp.run vm) ; false with Invalid_argument _ -> true)

let test_interp_qsort_callback () =
  (* libc qsort calls back into instrumented program code through the
     comparator pointer: the section-4.6 external-library boundary *)
  let src =
    "extern void qsort(void* base, long n, long size, int (*cmp)(const void* a, const void* b));\n\
     extern int printf(const char* f, ...);\n\
     long data[6];\n\
     int cmp_longs(const void* a, const void* b) {\n\
     long x = *((const long*) a); long y = *((const long*) b);\n\
     return x < y ? -1 : (x > y ? 1 : 0); }\n\
     int main(void) {\n\
     data[0] = 3; data[1] = 1; data[2] = 2; data[3] = 9; data[4] = 0; data[5] = 4;\n\
     qsort((void*) data, 6, sizeof(long), cmp_longs);\n\
     for (int i = 0; i < 6; i++) { printf(\"%ld\", data[i]); }\n\
     return 0; }"
  in
  (* must hold both uninstrumented and under STWC (strip at the boundary) *)
  let c = compiled src in
  let plain = Pipeline.run_baseline c in
  checks "sorted" "012349" plain.Interp.output;
  let o =
    Pipeline.run (Pipeline.instrument Rsti_sti.Rsti_type.Stwc (Pipeline.analyze c))
  in
  checks "sorted under STWC" "012349" o.Interp.output

let test_interp_strdup () =
  check64 "strdup copies" 0L
    (exit_code
       "extern char* strdup(const char* s);\n\
        extern int strcmp(const char* a, const char* b);\n\
        int main(void) { char* d = strdup(\"xyz\"); return strcmp(d, \"xyz\"); }")

let test_interp_calloc_and_math () =
  check64 "calloc + sqrt" 5L
    (exit_code
       "extern void* calloc(long n, long sz);\n\
        extern double sqrt(double x);\n\
        int main(void) { long* a = (long*) calloc(4, 8);\n\
        a[0] = (long) sqrt(25.0); return (int) (a[0] + a[1]); }")

let test_interp_strncpy_strcat () =
  let o =
    run
      "extern char* strncpy(char* d, const char* s, long n);\n\
       extern char* strcat(char* d, const char* s);\n\
       extern int printf(const char* f, ...);\n\
       int main(void) { char b[32]; strncpy(b, \"hello world\", 5);\n\
       strcat(b, \"!\"); printf(\"%s\", b); return 0; }"
  in
  checks "strncpy+strcat" "hello!" o.Interp.output

let test_interp_atoi_putchar () =
  let o =
    run
      "extern int atoi(const char* s);\n\
       extern int putchar(int c);\n\
       int main(void) { int n = atoi(\"65\"); putchar(n); putchar(n + 1); return n; }"
  in
  checks "putchar" "AB" o.Interp.output

let test_interp_unknown_function_traps () =
  (* the type checker rejects undeclared calls, so the runtime trap is
     only reachable through a missing entry point *)
  let c = compiled "int main(void) { return 0; }" in
  match (Pipeline.run_baseline ~entry:"not_main" c).Interp.status with
  | Interp.Trapped (Interp.Unknown_function _) -> ()
  | _ -> Alcotest.fail "expected unknown-function trap"

let test_interp_profiles_populated () =
  let o =
    run
      "extern int printf(const char* f, ...);\n\
       void tick(void) { }\n\
       int main(void) { for (int i = 0; i < 5; i++) { tick(); } printf(\"x\"); return 0; }"
  in
  checkb "tick counted 5x" true (List.assoc_opt "tick" o.Interp.call_profile = Some 5);
  checkb "printf counted" true (List.assoc_opt "printf" o.Interp.extern_profile = Some 1)

let test_interp_switch_semantics () =
  check64 "fallthrough + default" 422L
    (exit_code
       "int main(void) { int total = 0;\n\
        for (int i = 0; i < 6; i++) {\n\
        switch (i % 3) { case 0: continue; case 1: total += 10; break;\n\
        default: total += 1; }\n\
        total += 100; }\n\
        return total; }")

let test_interp_switch_no_default () =
  check64 "unmatched falls out" 7L
    (exit_code
       "int main(void) { int x = 7; switch (x) { case 1: x = 0; break; } return x; }")

(* A memory fault inside the simulated libc is a machine trap charged
   to the builtin, and a C size_t length never escapes as a host
   exception: each corpus program (also run by CI through rstic) must
   end in a memory fault inside the named builtin. *)
let libc_fault_cases =
  [
    ("strcpy", "libc_strcpy_null.c");
    ("memcpy", "libc_memcpy_negative.c");
    ("memcpy", "libc_memcpy_huge.c");
    ("strncpy", "libc_strncpy_negative.c");
    ("strncmp", "libc_strncmp_negative.c");
    ("memset", "libc_memset_huge.c");
  ]

let test_libc_fault builtin file () =
  let src = In_channel.with_open_bin (Filename.concat "corpus" file) In_channel.input_all in
  match (run src).Interp.status with
  | Interp.Trapped (Interp.Mem_fault { func; _ }) -> checks "faulting builtin" builtin func
  | Interp.Exited n -> Alcotest.failf "exited %Ld" n
  | Interp.Trapped t -> Alcotest.failf "trap: %s" (Interp.trap_to_string t)

(* In-range lengths keep their results: memmove reads before it writes,
   strncpy copies min(n, strlen) bytes plus a NUL, strncmp compares the
   n-byte prefixes. *)
let test_libc_in_range () =
  let o =
    run
      "extern void* memmove(void* d, const void* s, long n);\n\
       extern char* strncpy(char* d, const char* s, long n);\n\
       extern int strncmp(const char* a, const char* b, long n);\n\
       extern int printf(const char* f, ...);\n\
       int main(void) { char a[16]; char b[16];\n\
       strncpy(a, \"abcdefgh\", 16); memmove(a + 2, a, 5);\n\
       strncpy(b, \"xyz\", 2); b[2] = 0;\n\
       printf(\"%s %s %d %d\", a, b, strncmp(\"abc\", \"abd\", 2), strncmp(\"abc\", \"abd\", 3));\n\
       return 0; }"
  in
  checks "in-range results" "ababcdeh xy 0 -1" o.Interp.output

(* --------------------------- attacker API --------------------------- *)

let test_attack_hooks_fire_in_order () =
  let fired = ref [] in
  let atk name trigger =
    { Interp.trigger; action = (fun intr -> intr.note name; fired := name :: !fired) }
  in
  let src =
    "extern int printf(const char* f, ...);\n\
     void step(int n) { printf(\"step %d\\n\", n); }\n\
     int main(void) { step(1); step(2); step(3); return 0; }"
  in
  let o =
    run
      ~attacks:
        [ atk "on-2nd-step" (Interp.On_call ("step", 2));
          atk "on-1st-printf" (Interp.On_extern ("printf", 1)) ]
      src
  in
  checki "both fired" 2 (List.length !fired);
  checkb "events recorded" true
    (List.exists (function Interp.Ev_attack _ -> true | _ -> false) o.Interp.events)

let test_attack_write_visible_to_program () =
  let src = "long g = 1;\nvoid poke(void) { }\nint main(void) { poke(); return (int) g; }" in
  let atk =
    {
      Interp.trigger = Interp.On_call ("poke", 1);
      action = (fun intr -> intr.write_word (intr.global_addr "g") 99L);
    }
  in
  match (run ~attacks:[ atk ] src).status with
  | Interp.Exited 99L -> ()
  | _ -> Alcotest.fail "attacker write not visible"

let test_attack_heap_allocs_listed () =
  let seen = ref 0 in
  let src =
    "extern void* malloc(long n);\nvoid mark(void) { }\n\
     int main(void) { void* a = malloc(16); void* b = malloc(32); mark();\n\
     return a && b ? 0 : 1; }"
  in
  let atk =
    {
      Interp.trigger = Interp.On_call ("mark", 1);
      action = (fun intr -> seen := List.length (intr.heap_allocs ()));
    }
  in
  ignore (run ~attacks:[ atk ] src);
  checki "two allocations" 2 !seen

(* ------------------------------- cost ------------------------------- *)

let test_cost_model_scales () =
  let c =
    compiled
      "int main(void) { int s = 0; for (int i = 0; i < 50; i++) { s += i; } return s; }"
  in
  let run_with costs =
    (Pipeline.run_baseline ~config:{ Pipeline.default with Pipeline.costs } c)
      .Interp.cycles
  in
  let base = run_with Cost.default in
  let double = run_with { Cost.default with alu = Cost.default.alu * 2 } in
  checkb "alu cost scales cycles" true (double > base)

let test_cost_with_pac () =
  checki "with_pac" 11 (Cost.with_pac Cost.default 11).Cost.pac

(* -------------------------- golden outcomes -------------------------- *)

(* Interpreter outcomes pinned in test/golden/interp_outcomes.txt: every
   observable field of a set of runs that, between them, execute every
   IR construct under every machine mode. Any change to the
   interpreter that moves a cycle, a counter, an event, a profiled site
   or an incident shows up as a line diff. On a mismatch the rendering
   is written to interp_outcomes.actual in the test's working directory
   (_build/default/test), which is also how the file is regenerated. *)

module Ir = Rsti_ir.Ir
module RT = Rsti_sti.Rsti_type
module K = Rsti_workloads.Kernels

(* Covers what the small kernels may not: a pointer-to-pointer cast
   through void** (the pp library calls), unary minus, logical and
   bitwise not, numeric casts, float negation, function and string
   addresses, and dead code after a return. *)
let golden_extra =
  {|
extern void* malloc(long n);
extern int printf(const char* f, ...);
struct node { long key; struct node* next; };
long counter = 3;
void erased(void** pp) { void* inner = *pp; if (inner) { counter = counter + 1; } }
long twice(long x) { return x * 2; }
int main(void) {
  struct node* p = (struct node*) malloc(sizeof(struct node));
  long (*f)(long) = twice;
  double d = 2.5;
  long a[4];
  p->key = 41;
  erased((void**) &p);
  a[1] = -p->key + (~counter) + !counter;
  d = -d * (double) a[1];
  printf("%ld %ld %d %s\n", p->key, f(a[1]), (int) d, "ok");
  return 0;
  counter = 9;
}
|}

let golden_kernels =
  [
    ("extra", golden_extra);
    ("hash_table", K.hash_table ~buckets:8 ~items:24 ~lookups:48);
    ("event_queue", K.event_queue ~events:40);
    ("binary_tree", K.binary_tree ~nodes:40 ~searches:60);
    ("network_simplex", K.network_simplex ~nodes:20 ~iters:2);
    ("stencil", K.stencil ~n:32 ~iters:3);
    ("string_churn", K.string_churn ~rounds:8);
    ("dispatch_table", K.dispatch_table ~rounds:40);
  ]

(* Hand-built modules, for what the frontend never emits. *)
let ins i : Ir.instr = { i; dbg = None }

let hand_func ?(name = "main") ~nregs blocks : Ir.func =
  {
    name;
    ret = Rsti_minic.Ctype.Long;
    params = [];
    nregs;
    loc = Rsti_minic.Loc.dummy;
    blocks = Array.mapi (fun label (instrs, term) -> { Ir.label; instrs; term }) blocks;
  }

let hand_modul ?(globals = []) funcs : Ir.modul =
  {
    m_structs = [ ("node", [ ("key", Rsti_minic.Ctype.Long) ]) ];
    m_globals =
      List.mapi
        (fun v_id v_name ->
          { Ir.gvar =
              { Rsti_minic.Tast.v_id; v_name; v_ty = Rsti_minic.Ctype.Long;
                v_kind = Rsti_minic.Tast.Kglobal; v_func = None;
                v_loc = Rsti_minic.Loc.dummy } })
        globals;
    m_funcs = funcs;
    m_strings = [||];
    m_externs = [];
  }

(* Dead code still gets a real terminator from the lowering, so
   [Unreachable] only runs in a hand-built function. *)
let unreachable_modul =
  hand_modul
    [
      hand_func ~nregs:1
        [|
          ([ ins (Ir.Binop { dst = 0; op = Rsti_minic.Ast.Add; fl = Ir.Iop; a = Ir.Imm 1L; b = Ir.Imm 2L }) ],
           Ir.Br 1);
          ([], Ir.Unreachable);
        |];
    ]

let golden_mechs = [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ]
let uncached = { Pipeline.default with Pipeline.cache = false }
let golden_compiled src = Pipeline.compile ~config:uncached (Pipeline.source ~file:"g.c" src)

let golden_inst mech src =
  Pipeline.instrument ~config:uncached mech (Pipeline.analyze ~config:uncached (golden_compiled src))

let render_outcome buf name (o : Interp.outcome) =
  let p fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let md5 s = Digest.to_hex (Digest.string s) in
  let c = o.counts in
  p "## %s" name;
  p "status %s"
    (match o.status with
    | Interp.Exited n -> Printf.sprintf "exit %Ld" n
    | Interp.Trapped t -> "trap " ^ Interp.trap_to_string t);
  p "cycles %d" o.cycles;
  p "counts instrs=%d loads=%d stores=%d signs=%d auths=%d strips=%d pp=%d pac_charges=%d"
    c.instrs c.loads c.stores c.pac_signs c.pac_auths c.pac_strips c.pp_calls c.pac_charges;
  p "output %s" (md5 o.output);
  let prof l = String.concat " " (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) l) in
  p "calls %s" (prof o.call_profile);
  p "externs %s" (prof o.extern_profile);
  let event = function
    | Interp.Ev_call f -> "call " ^ f
    | Interp.Ev_extern (f, args) ->
        Printf.sprintf "extern %s(%s)" f (String.concat "," (List.map Int64.to_string args))
    | Interp.Ev_auth_fail { func; modifier; ptr } ->
        Printf.sprintf "auth_fail %s %Lx %Lx" func modifier ptr
    | Interp.Ev_attack s -> "attack " ^ s
    | Interp.Ev_output s -> "output " ^ String.escaped s
  in
  p "events %d %s" (List.length o.events) (md5 (String.concat "\n" (List.map event o.events)));
  List.iter
    (fun (s : Interp.site) ->
      p "site %s:%d cycles=%d instrs=%d pac=%d strips=%d pp=%d" s.s_func s.s_line s.s_cycles
        s.s_instrs s.s_pac_charges s.s_strips s.s_pp_calls)
    o.sites;
  let op (x : Interp.pac_op) =
    Printf.sprintf "%s %s:%d %s static=%Lx mod=%Lx src=%Lx res=%Lx ok=%b at=%d/%d"
      (Interp.op_kind_to_string x.op_kind) x.op_func x.op_line
      (Rsti_pa.Key.which_to_string x.op_key) x.op_static_mod x.op_modifier x.op_src
      x.op_result x.op_ok x.op_cycle x.op_instr
  in
  let opt f = function Some v -> f v | None -> "none" in
  List.iter
    (fun (i : Interp.incident) ->
      p "incident %s:%d %s static=%Lx mod=%Lx ptr=%Lx at=%d/%d corrupt=%s latency=%s/%s"
        i.inc_func i.inc_line (Rsti_pa.Key.which_to_string i.inc_key) i.inc_static_mod
        i.inc_modifier i.inc_ptr i.inc_cycle i.inc_instr
        (opt (fun (cy, ins) -> Printf.sprintf "%d/%d" cy ins) i.inc_corrupt)
        (opt string_of_int i.inc_latency_cycles)
        (opt string_of_int i.inc_latency_instrs);
      p "  signer %s" (opt op i.inc_signer);
      List.iter (fun x -> p "  window %s" (op x)) i.inc_window)
    o.incidents

let trap_programs =
  [
    ( "trap: stack overflow",
      "int boom(int n) { int pad[64]; pad[0] = n; return boom(n + pad[0]); }\n\
       int main(void) { return boom(1); }" );
    ( "trap: div by zero",
      "int main(void) { int s = 0; for (int i = 0; i < 7; i++) { s += i; }\n\
       int z = s - 21; return s / z; }" );
    ( "trap: mid-block memory fault",
      "long g = 5;\n\
       int main(void) { long* p = (long*) 24; long a = g + 1; long b = *p; return (int) (a + b); }" );
  ]

let golden_rendering () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, src) ->
      render_outcome buf (name ^ " base") (Pipeline.run_baseline ~config:uncached (golden_compiled src));
      List.iter
        (fun mech ->
          render_outcome buf
            (Printf.sprintf "%s %s" name (RT.mechanism_to_string mech))
            (Pipeline.run ~config:uncached (golden_inst mech src)))
        golden_mechs)
    golden_kernels;
  let ht = List.assoc "hash_table" golden_kernels in
  let dt = List.assoc "dispatch_table" golden_kernels in
  render_outcome buf "hash_table stl profile"
    (Pipeline.run ~config:uncached ~profile:true (golden_inst RT.Stl ht));
  render_outcome buf "hash_table stwc shadow-mac"
    (Pipeline.run ~config:uncached ~backend:`Shadow_mac (golden_inst RT.Stwc ht));
  render_outcome buf "dispatch_table base cfi"
    (Pipeline.run_baseline ~config:uncached ~cfi:true (golden_compiled dt));
  let module Sc = Rsti_attacks.Scenario in
  let module Cat = Rsti_attacks.Catalog in
  let sc = Cat.newton_cscfi in
  render_outcome buf "newton-cscfi stwc no-fpac"
    (Pipeline.run ~config:uncached ~fpac:false ~attacks:sc.Sc.attacks (golden_inst RT.Stwc sc.Sc.program));
  List.iter
    (fun ((sc : Sc.t), mech) ->
      render_outcome buf
        (Printf.sprintf "%s %s flight" sc.id (RT.mechanism_to_string mech))
        (Sc.run ~flight:Rsti_attacks.Incident.default_flight sc mech).outcome)
    [ (Cat.newton_cscfi, RT.Stwc); (Cat.cve_python, RT.Stl); (Cat.dop_proftpd, RT.Parts) ];
  let r = Pipeline.result (golden_inst RT.Stwc ht) in
  let vm = Interp.create ~pp_table:r.pp_table r.modul in
  render_outcome buf "trap: step limit" (Interp.run ~step_limit:5_000 vm);
  List.iter
    (fun (name, src) ->
      render_outcome buf name (Pipeline.run_baseline ~config:uncached (golden_compiled src)))
    trap_programs;
  render_outcome buf "trap: unreachable" (Interp.run (Interp.create unreachable_modul));
  Buffer.contents buf

(* The constructors of every IR type the interpreter dispatches on that
   occur in the golden modules (uninstrumented and under each mechanism). *)
let golden_constructors () =
  let seen = Hashtbl.create 64 in
  let mark s = Hashtbl.replace seen s () in
  let value (v : Ir.value) =
    mark
      (match v with
      | Ir.Imm _ -> "Imm"
      | Ir.Fimm _ -> "Fimm"
      | Ir.Reg _ -> "Reg"
      | Ir.Global _ -> "Global"
      | Ir.Funcaddr _ -> "Funcaddr"
      | Ir.Str _ -> "Str"
      | Ir.Null -> "Null")
  in
  let instr (ins : Ir.instr) =
    let tag, vs =
      match ins.i with
      | Ir.Alloca _ -> ("Alloca", [])
      | Ir.Load { addr; _ } -> ("Load", [ addr ])
      | Ir.Store { src; addr; _ } -> ("Store", [ src; addr ])
      | Ir.Gep { base; _ } -> ("Gep", [ base ])
      | Ir.Gepidx { base; idx; _ } -> ("Gepidx", [ base; idx ])
      | Ir.Bitcast { src; _ } -> ("Bitcast", [ src ])
      | Ir.Binop { a; b; _ } -> ("Binop", [ a; b ])
      | Ir.Neg { src; _ } -> ("Neg", [ src ])
      | Ir.Lognot { src; _ } -> ("Lognot", [ src ])
      | Ir.Bitnot { src; _ } -> ("Bitnot", [ src ])
      | Ir.Cast_num { src; _ } -> ("Cast_num", [ src ])
      | Ir.Call { callee; args; _ } ->
          ("Call", match callee with Ir.Indirect c -> c :: args | Ir.Direct _ -> args)
      | Ir.Pac p ->
          mark
            (match p.p_kind with
            | Ir.Ksign -> "Ksign"
            | Ir.Kauth -> "Kauth"
            | Ir.Kresign -> "Kresign"
            | Ir.Kstrip -> "Kstrip");
          ("Pac", [ p.p_src; p.p_slot_addr ])
      | Ir.Pp pp -> (
          mark "Pp";
          match pp with
          | Ir.Pp_add { pp_addr; _ } -> ("Pp_add", [ pp_addr ])
          | Ir.Pp_sign { src; slot_addr; _ } -> ("Pp_sign", [ src; slot_addr ])
          | Ir.Pp_auth { src; slot_addr; _ } -> ("Pp_auth", [ src; slot_addr ])
          | Ir.Pp_add_tbi { src; _ } -> ("Pp_add_tbi", [ src ]))
    in
    mark tag;
    List.iter value vs
  in
  let modul (m : Ir.modul) =
    List.iter
      (fun (fn : Ir.func) ->
        Array.iter
          (fun (b : Ir.block) ->
            List.iter instr b.instrs;
            match b.term with
            | Ir.Ret None -> mark "Ret"
            | Ir.Ret (Some v) -> mark "Ret"; value v
            | Ir.Br _ -> mark "Br"
            | Ir.Condbr (c, _, _) -> mark "Condbr"; value c
            | Ir.Unreachable -> mark "Unreachable")
          fn.blocks)
      m.m_funcs
  in
  List.iter
    (fun (_, src) ->
      modul (Pipeline.ir (golden_compiled src));
      List.iter (fun mech -> modul (Pipeline.instrumented_ir (golden_inst mech src))) golden_mechs)
    golden_kernels;
  modul unreachable_modul;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let all_constructors =
  List.sort compare
    [ "Alloca"; "Load"; "Store"; "Gep"; "Gepidx"; "Bitcast"; "Binop"; "Neg"; "Lognot";
      "Bitnot"; "Cast_num"; "Call"; "Pac"; "Pp"; "Imm"; "Fimm"; "Reg"; "Global";
      "Funcaddr"; "Str"; "Null"; "Ksign"; "Kauth"; "Kresign"; "Kstrip"; "Pp_add";
      "Pp_sign"; "Pp_auth"; "Pp_add_tbi"; "Ret"; "Br"; "Condbr"; "Unreachable" ]

let test_golden_constructors () =
  let seen = golden_constructors () in
  Alcotest.(check (list string)) "every constructor executed by the golden set" all_constructors seen

let test_golden_outcomes () =
  let actual = golden_rendering () in
  let expected = In_channel.with_open_bin "golden/interp_outcomes.txt" In_channel.input_all in
  if actual <> expected then begin
    Out_channel.with_open_bin "interp_outcomes.actual" (fun oc -> output_string oc actual);
    let a = String.split_on_char '\n' actual and e = String.split_on_char '\n' expected in
    let rec first i = function
      | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else (i, y, x)
      | [], y :: _ -> (i, y, "<end>")
      | x :: _, [] -> (i, "<end>", x)
      | [], [] -> (i, "", "")
    in
    let line, want, got = first 1 (e, a) in
    Alcotest.failf "golden line %d: expected %S, got %S (full rendering in interp_outcomes.actual)"
      line want got
  end

(* Static facts (operand addresses, sizes, field offsets) are resolved
   before a function first runs, but a fact that cannot be resolved must
   fail only when its instruction executes, exactly as it would have
   failed while interpreting: an unknown global and an unknown struct
   field in never-called functions leave the run untouched. *)
let test_lazy_resolution () =
  let bad_global =
    hand_func ~name:"bad_global" ~nregs:0
      [| ([ ins (Ir.Store { src = Ir.Imm 1L; addr = Ir.Global "missing";
                            ty = Rsti_minic.Ctype.Long; slot = Ir.Svar 0 }) ],
          Ir.Ret None) |]
  in
  let bad_field =
    hand_func ~name:"bad_field" ~nregs:1
      [| ([ ins (Ir.Gep { dst = 0; base = Ir.Global "g"; sname = "node"; field = "nofield" }) ],
          Ir.Ret (Some (Ir.Reg 0))) |]
  in
  let main calls =
    hand_func ~nregs:0
      [| (List.map (fun f -> ins (Ir.Call { dst = None; callee = Ir.Direct f; args = [];
                                             arg_tys = []; ret_ty = Rsti_minic.Ctype.Void }))
            calls,
          Ir.Ret (Some (Ir.Imm 7L))) |]
  in
  let run calls =
    Interp.run (Interp.create (hand_modul ~globals:[ "g" ] [ main calls; bad_global; bad_field ]))
  in
  (match (run []).status with
  | Interp.Exited 7L -> ()
  | _ -> Alcotest.fail "uncalled unresolvable code must not affect the run");
  Alcotest.check_raises "unknown global raises on execution"
    (Invalid_argument "Interp.global_addr: unknown global missing")
    (fun () -> ignore (run [ "bad_global" ]));
  Alcotest.check_raises "unknown field raises on execution" Not_found (fun () ->
      ignore (run [ "bad_field" ]))

let tests =
  [
    Alcotest.test_case "mem: u8 roundtrip" `Quick test_mem_u8_roundtrip;
    Alcotest.test_case "mem: u64 roundtrip" `Quick test_mem_u64_roundtrip;
    Alcotest.test_case "mem: page straddle" `Quick test_mem_page_straddle;
    Alcotest.test_case "mem: unmapped faults" `Quick test_mem_unmapped_faults;
    Alcotest.test_case "mem: non-canonical faults" `Quick test_mem_non_canonical_faults;
    Alcotest.test_case "mem: read-only regions" `Quick test_mem_read_only;
    Alcotest.test_case "mem: cstrings" `Quick test_mem_cstring;
    Alcotest.test_case "interp: arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp: division truncates" `Quick test_interp_division_truncates;
    Alcotest.test_case "interp: div by zero" `Quick test_interp_div_by_zero_traps;
    Alcotest.test_case "interp: recursion (fib)" `Quick test_interp_fib;
    Alcotest.test_case "interp: floats" `Quick test_interp_floats;
    Alcotest.test_case "interp: char semantics" `Quick test_interp_char_semantics;
    Alcotest.test_case "interp: short-circuit" `Quick test_interp_short_circuit_effects;
    Alcotest.test_case "interp: for-continue" `Quick test_interp_for_continue;
    Alcotest.test_case "interp: do-while" `Quick test_interp_do_while;
    Alcotest.test_case "interp: ternary" `Quick test_interp_cond_expr;
    Alcotest.test_case "interp: global init" `Quick test_interp_globals_initialized;
    Alcotest.test_case "interp: function pointers" `Quick test_interp_function_pointers;
    Alcotest.test_case "interp: string builtins" `Quick test_interp_strings_builtins;
    Alcotest.test_case "interp: memcpy/memset" `Quick test_interp_memcpy_memset;
    Alcotest.test_case "interp: exit()" `Quick test_interp_exit_builtin;
    Alcotest.test_case "interp: heap zeroed" `Quick test_interp_malloc_zeroed;
    Alcotest.test_case "interp: stack overflow" `Quick test_interp_stack_overflow;
    Alcotest.test_case "interp: step limit" `Quick test_interp_step_limit;
    Alcotest.test_case "interp: cycle accounting" `Quick test_interp_cycles_positive_and_counted;
    Alcotest.test_case "interp: snprintf" `Quick test_interp_snprintf;
    Alcotest.test_case "interp: single use" `Quick test_interp_machine_single_use;
    Alcotest.test_case "interp: switch semantics" `Quick test_interp_switch_semantics;
    Alcotest.test_case "interp: switch no default" `Quick test_interp_switch_no_default;
    Alcotest.test_case "interp: qsort callback" `Quick test_interp_qsort_callback;
    Alcotest.test_case "interp: strdup" `Quick test_interp_strdup;
    Alcotest.test_case "interp: calloc + math" `Quick test_interp_calloc_and_math;
    Alcotest.test_case "interp: strncpy/strcat" `Quick test_interp_strncpy_strcat;
    Alcotest.test_case "interp: atoi/putchar" `Quick test_interp_atoi_putchar;
    Alcotest.test_case "interp: unknown function" `Quick test_interp_unknown_function_traps;
    Alcotest.test_case "interp: profiles" `Quick test_interp_profiles_populated;
    Alcotest.test_case "libc: in-range lengths" `Quick test_libc_in_range;
    Alcotest.test_case "attack: hooks fire" `Quick test_attack_hooks_fire_in_order;
    Alcotest.test_case "attack: writes visible" `Quick test_attack_write_visible_to_program;
    Alcotest.test_case "attack: heap allocs" `Quick test_attack_heap_allocs_listed;
    Alcotest.test_case "cost: scales" `Quick test_cost_model_scales;
    Alcotest.test_case "cost: with_pac" `Quick test_cost_with_pac;
    Alcotest.test_case "golden: constructor coverage" `Quick test_golden_constructors;
    Alcotest.test_case "golden: interpreter outcomes" `Quick test_golden_outcomes;
    Alcotest.test_case "interp: lazy resolution" `Quick test_lazy_resolution;
  ]
  @ List.map
      (fun (builtin, file) ->
        Alcotest.test_case
          (Printf.sprintf "libc: %s faults in %s" file builtin)
          `Quick (test_libc_fault builtin file))
      libc_fault_cases
