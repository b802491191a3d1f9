module Ctype = Rsti_minic.Ctype
module Ir = Rsti_ir.Ir
module Ast = Rsti_minic.Ast

type event =
  | Ev_call of string
  | Ev_extern of string * int64 list
  | Ev_auth_fail of { func : string; modifier : int64; ptr : int64 }
  | Ev_attack of string
  | Ev_output of string

type trap =
  | Mem_fault of { fault : string; func : string; after_auth_fail : bool }
  | Bad_indirect_call of { target : int64; func : string; after_auth_fail : bool }
  | Div_by_zero of string
  | Stack_overflow
  | Step_limit_exceeded
  | Unknown_function of string
  | Pac_auth_failure of { func : string; modifier : int64; ptr : int64 }
  | Cfi_violation of { func : string; target : string }

let trap_to_string = function
  | Mem_fault { fault; func; after_auth_fail } ->
      Printf.sprintf "memory fault in %s: %s%s" func fault
        (if after_auth_fail then " [after PAC authentication failure]" else "")
  | Bad_indirect_call { target; func; after_auth_fail } ->
      Printf.sprintf "indirect call to invalid target 0x%Lx in %s%s" target func
        (if after_auth_fail then " [after PAC authentication failure]" else "")
  | Div_by_zero f -> "division by zero in " ^ f
  | Pac_auth_failure { func; modifier; ptr } ->
      Printf.sprintf
        "PAC authentication failure in %s (modifier 0x%Lx, pointer 0x%Lx): FPAC trap"
        func modifier ptr
  | Cfi_violation { func; target } ->
      Printf.sprintf "CFI violation in %s: indirect call to %s with mismatched signature"
        func target
  | Stack_overflow -> "stack overflow"
  | Step_limit_exceeded -> "step limit exceeded"
  | Unknown_function f -> "unknown function " ^ f

type status = Exited of int64 | Trapped of trap

type counts = {
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable pac_signs : int;
  mutable pac_auths : int;
  mutable pac_strips : int;
  mutable pp_calls : int;
  mutable pac_charges : int;
}

(* One profiled (function, source line) pair. Attribution is exact, not
   sampled: every cycle the machine charges goes through [charge], which
   also adds it to the current site when profiling, so the sites of an
   outcome partition its cycle total. The per-site instrumentation
   counters ([s_pac_charges]/[s_strips]/[s_pp_calls]) mirror the global
   {!counts} ones so {!reprice} moves site cycles exactly too. *)
type site = {
  s_func : string;
  s_line : int;  (* 0 when the instruction carries no !dbg location *)
  mutable s_cycles : int;
  mutable s_instrs : int;
  mutable s_pac_charges : int;
  mutable s_strips : int;
  mutable s_pp_calls : int;
}

(* One PAC-unit operation captured by the flight recorder. [op_static_mod]
   is the modifier *constant* carried by the instruction (Mconst c and
   Mloc c both record c, before any slot-address XOR), which is exactly
   the class identity the static Equiv partition uses — incidents
   correlate with their static class through it. [op_modifier] is the
   runtime modifier actually fed to the PAC unit. *)
type op_kind =
  | Op_sign
  | Op_auth
  | Op_resign
  | Op_strip
  | Op_pp_sign
  | Op_pp_auth

type pac_op = {
  op_kind : op_kind;
  op_func : string;
  op_line : int;        (* 0 when the instruction carries no !dbg location *)
  op_key : Rsti_pa.Key.which;
  op_static_mod : int64;
  op_modifier : int64;
  op_src : int64;
  op_result : int64;
  op_ok : bool;         (* false only for a failing auth/resign *)
  op_cycle : int;
  op_instr : int;
}

(* The structured security-event record emitted at a failing auth. The
   expected signer is the failing site's own (static modifier, key) —
   the discipline says whoever signed this slot must have used exactly
   that pair; the observed signer is the sign operation that actually
   produced the failing pointer value ([None] = the value was never
   signed in this run: a raw overwrite). Detection latency is measured
   from the first attacker store (scenarios tag it through the intruder
   API) to the failing auth, in both cycles and instructions; [None]
   when no corruption was tagged (an organic failure). *)
type incident = {
  inc_func : string;
  inc_line : int;
  inc_key : Rsti_pa.Key.which;
  inc_static_mod : int64;
  inc_modifier : int64;
  inc_ptr : int64;
  inc_signer : pac_op option;
  inc_window : pac_op list;  (* last-N flight-recorder ops, oldest first *)
  inc_cycle : int;
  inc_instr : int;
  inc_corrupt : (int * int) option;  (* (cycle, instr) of the first tagged store *)
  inc_latency_cycles : int option;
  inc_latency_instrs : int option;
}

type outcome = {
  status : status;
  cycles : int;
  counts : counts;
  events : event list;
  output : string;
  call_profile : (string * int) list;
      (* defined-function call counts, descending *)
  extern_profile : (string * int) list;
      (* simulated-libc call counts, descending *)
  sites : site list;
      (* hot-site profile, cycles descending; [] unless profiling *)
  incidents : incident list;
      (* chronological; [] unless flight recording *)
}

let detected (o : outcome) =
  match o.status with
  | Trapped (Mem_fault { after_auth_fail = true; _ })
  | Trapped (Bad_indirect_call { after_auth_fail = true; _ })
  | Trapped (Pac_auth_failure _) ->
      true
  | _ -> false

(* Costs never influence control flow (the step limit counts
   instructions, not cycles), so a finished run's trace is identical
   under any cost record and the cycle total is the only thing to
   adjust. Each instrumentation price maps to one counter: [pac] was
   charged [pac_charges] times (resigns count twice; the pp mechanism's
   sign/auth price at [pp]), [strip] once per [pac_strips], [pp] once
   per [pp_calls], and [pac_spill] rides along with every [pac] charge
   on the [`Pac] backend and never on [`Shadow_mac]. The base ISA
   prices have no exact counters, so a change there is refused. *)
let reprice ~from ~to_ ~pac_spill_charged (o : outcome) =
  let d get = get to_ - get from in
  if
    d (fun (c : Cost.t) -> c.alu) <> 0
    || d (fun (c : Cost.t) -> c.load) <> 0
    || d (fun (c : Cost.t) -> c.store) <> 0
    || d (fun (c : Cost.t) -> c.gep) <> 0
    || d (fun (c : Cost.t) -> c.branch) <> 0
    || d (fun (c : Cost.t) -> c.call) <> 0
    || d (fun (c : Cost.t) -> c.extern_call) <> 0
  then invalid_arg "Interp.reprice: base ISA prices differ";
  let spill =
    if pac_spill_charged then d (fun (c : Cost.t) -> c.pac_spill) else 0
  in
  let d_pac = d (fun (c : Cost.t) -> c.pac) + spill in
  let d_strip = d (fun (c : Cost.t) -> c.strip) in
  let d_pp = d (fun (c : Cost.t) -> c.pp) in
  let cycles =
    o.cycles
    + (d_pac * o.counts.pac_charges)
    + (d_strip * o.counts.pac_strips)
    + (d_pp * o.counts.pp_calls)
  in
  let sites =
    match o.sites with
    | [] -> []
    | sites ->
        List.map
          (fun s ->
            {
              s with
              s_cycles =
                s.s_cycles
                + (d_pac * s.s_pac_charges)
                + (d_strip * s.s_strips)
                + (d_pp * s.s_pp_calls);
            })
          sites
        |> List.sort (fun a b ->
               match compare b.s_cycles a.s_cycles with
               | 0 -> compare (a.s_func, a.s_line) (b.s_func, b.s_line)
               | c -> c)
  in
  { o with cycles; sites }

type intruder = {
  read_word : int64 -> int64;
  write_word : int64 -> int64 -> unit;
  read_string : int64 -> string;
  write_string : int64 -> string -> unit;
  global_addr : string -> int64;
  func_addr : string -> int64;
  heap_allocs : unit -> (int64 * int) list;
  note : string -> unit;
}

type trigger = On_call of string * int | On_extern of string * int

type attack = { trigger : trigger; action : intruder -> unit }

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)
(* ------------------------------------------------------------------ *)

(* Registers live in an unboxed frame: 8-byte slots, read and written in
   place, register r at byte 8r. The constants a function uses (Imm,
   Fimm, Null and the resolved Global/Funcaddr/Str addresses) get slots
   after its registers, filled from the function's frame template, so
   every compiled operand is a byte offset into the frame. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* A defined function; [code] is filled in by its first call on this
   machine, so code that never runs is never compiled. *)
type cfunc = { fn : Ir.func; mutable code : code option }

and code = {
  nregs : int;  (* register slots; arguments past them are dropped *)
  template : Bytes.t;  (* zeroed registers, then the constant slots *)
  blocks : cblock array;
}

and cblock = { instrs : (Bytes.t -> unit) array; term : cterm }

and cterm =
  | Cret of int  (* offset of the returned slot; -1 returns 0 *)
  | Cbr of int
  | Ccondbr of int * int * int
  | Cfail of bool * exn  (* raise; after a branch step when [true] *)

(* A PAC modifier with its slot-address operand resolved; [Mbad] keeps
   the resolution failure for the moment the modifier is evaluated. *)
type cmod = Mc of int64 | Ml of int64 * int | Mbad of int64 * exn

type cpac = {
  kind : Ir.pac_kind;
  dst : int;
  src : int;
  key : Rsti_pa.Key.which;
  md : cmod;
  md_from : cmod;  (* Kresign only *)
  slot : int;  (* the slot address, read by the [`Shadow_mac] backend only *)
}

type cpp =
  | Cpp_add
  | Cpp_sign of { dst : int; src : int; ce : int; slot : int }
  | Cpp_auth of { dst : int; src : int; slot : int }
  | Cpp_add_tbi of { dst : int; src : int; ce : int }

type t = {
  m : Ir.modul;
  mem : Memory.t;
  pac : Rsti_pa.Pac.ctx;
  costs : Cost.t;
  funcs_by_name : (string, cfunc) Hashtbl.t;
  func_addrs : (string, int64) Hashtbl.t;    (* defined + libc *)
  code_map : (int64, [ `Defined of cfunc | `Libc of string ]) Hashtbl.t;
  global_addrs : (string, int64) Hashtbl.t;
  string_addrs : int64 array;
  mutable heap_ptr : int64;
  mutable allocs : (int64 * int) list;
  mutable sp : int;  (* stack addresses are canonical, so they fit an int *)
  mutable stack_mapped : int;  (* every stack page from here up is mapped *)
  mutable cycles : int;
  counts : counts;
  mutable events : event list;  (* reverse *)
  out : Buffer.t;
  mutable step_limit : int;
  mutable auth_failed : bool;   (* any auth failure so far *)
  mutable call_counts : (string, int) Hashtbl.t;
  mutable extern_counts : (string, int) Hashtbl.t;
  mutable attacks : attack list;
  mutable rng : Rsti_util.Splitmix.t;
  mutable ran : bool;
  fpac : bool;
  cfi : bool;
  backend : [ `Pac | `Shadow_mac ];
  (* the shadow-MAC backend's table: slot address -> 64-bit MAC, held by
     the trusted runtime (CCFI stores it in protected memory) *)
  shadow : (int64, int64) Hashtbl.t;
  (* exact hot-site profiler; when off, the only cost on the hot path is
     one boolean load per charge and nothing allocates *)
  profiling : bool;
  prof_sites : (string * int, site) Hashtbl.t;
  mutable cur_site : site;
  (* PAC flight recorder; same discipline as the profiler — when off
     ([recording] = false), every PAC op pays one boolean test and
     nothing allocates. When on, the last [Array.length fr_buf] ops are
     kept in a preallocated ring. *)
  recording : bool;
  fr_buf : pac_op array;
  mutable fr_next : int;  (* total ops recorded; slot = fr_next mod cap *)
  signers : (int64, pac_op) Hashtbl.t;
      (* signed value -> the sign op that produced it (latest wins), so
         the observed signer survives even after falling out of the ring *)
  mutable incidents : incident list;  (* reverse *)
  mutable corrupt_at : (int * int) option;
      (* (cycle, instr) of the first intruder store, the corruption
         point detection latency is measured from *)
  mutable cur_line : int;  (* !dbg line of the dispatching instruction *)
}

exception Trap_exn of trap
exception Exit_exn of int64

let emit_event t ev = t.events <- ev :: t.events

let builtin_names =
  [
    "malloc"; "calloc"; "free"; "printf"; "puts"; "putchar"; "strlen"; "strcmp";
    "strncmp"; "strcpy"; "strncpy"; "strcat"; "memcpy"; "memset"; "memmove";
    "strstr"; "strchr"; "atoi"; "abs"; "exit"; "rand"; "srand"; "system";
    "mprotect"; "dlopen"; "mmap"; "socket"; "send"; "recv"; "open"; "read";
    "write"; "close"; "getenv"; "snprintf"; "fprintf"; "qsort"; "log"; "strdup";
    "sqrt"; "fabs"; "floor"; "ceil"; "pow"; "exec";
  ]

(* Execution begins (global init, entry dispatch) before any instruction
   has named a site; those charges land on the _start pseudo-site. *)
let boot_site () =
  {
    s_func = "_start";
    s_line = 0;
    s_cycles = 0;
    s_instrs = 0;
    s_pac_charges = 0;
    s_strips = 0;
    s_pp_calls = 0;
  }

(* Ring slots are overwritten before they are ever read, so the filler
   op is never observable. *)
let dummy_op =
  {
    op_kind = Op_strip;
    op_func = "";
    op_line = 0;
    op_key = Rsti_pa.Key.DA;
    op_static_mod = 0L;
    op_modifier = 0L;
    op_src = 0L;
    op_result = 0L;
    op_ok = true;
    op_cycle = 0;
    op_instr = 0;
  }

let create ?(costs = Cost.default) ?(seed = 0xC0FFEEL) ?(pp_table = []) ?(fpac = true)
    ?(cfi = false) ?(backend = `Pac) ?(profile = false) ?(flight = 0) (m : Ir.modul) =
  let mem = Memory.create () in
  let pac = Rsti_pa.Pac.make ~seed () in
  let funcs_by_name = Hashtbl.create 64 in
  let func_addrs = Hashtbl.create 64 in
  let code_map = Hashtbl.create 64 in
  List.iteri
    (fun i (f : Ir.func) ->
      let addr = Layout.code_addr_of_index Layout.text_base i in
      let cf = { fn = f; code = None } in
      Hashtbl.replace funcs_by_name f.name cf;
      Hashtbl.replace func_addrs f.name addr;
      Hashtbl.replace code_map addr (`Defined cf))
    m.m_funcs;
  (* Externs and built-ins live in the simulated libc. *)
  let libc_syms =
    List.sort_uniq compare (builtin_names @ List.map fst m.m_externs)
  in
  List.iteri
    (fun i name ->
      if not (Hashtbl.mem func_addrs name) then begin
        let addr = Layout.code_addr_of_index Layout.libc_base i in
        Hashtbl.replace func_addrs name addr;
        Hashtbl.replace code_map addr (`Libc name)
      end)
    libc_syms;
  (* Globals. *)
  let global_addrs = Hashtbl.create 32 in
  let gp = ref Layout.globals_base in
  List.iter
    (fun (g : Ir.global_def) ->
      let size = max 8 (Ir.sizeof m g.gvar.v_ty) in
      Memory.map mem ~addr:!gp ~size;
      Hashtbl.replace global_addrs g.gvar.Rsti_minic.Tast.v_name !gp;
      gp := Int64.add !gp (Int64.of_int ((size + 7) / 8 * 8)))
    m.m_globals;
  (* Extern data objects (rare) get zeroed storage too. *)
  List.iter
    (fun (name, ty) ->
      match ty with
      | Ctype.Func _ -> ()
      | _ ->
          if not (Hashtbl.mem global_addrs name) then begin
            let size = max 8 (try Ir.sizeof m ty with _ -> 8) in
            Memory.map mem ~addr:!gp ~size;
            Hashtbl.replace global_addrs name !gp;
            gp := Int64.add !gp (Int64.of_int ((size + 7) / 8 * 8))
          end)
    m.m_externs;
  (* Strings in read-only data. *)
  let sp = ref Layout.rodata_base in
  let string_addrs =
    Array.map
      (fun s ->
        let addr = !sp in
        Memory.map mem ~addr ~size:(String.length s + 1);
        Memory.write_cstring mem addr s;
        sp := Int64.add !sp (Int64.of_int ((String.length s + 8) / 8 * 8));
        addr)
      m.m_strings
  in
  let boot = boot_site () in
  (* Pointer-to-pointer CE->FE metadata: read-only, as the paper requires. *)
  let pp_base = Int64.add Layout.rodata_base 0x8000L in
  if pp_table <> [] then begin
    Memory.map mem ~addr:pp_base ~size:(256 * 8);
    List.iter
      (fun (ce, fe_mod) ->
        Memory.write_u64_raw mem (Int64.add pp_base (Int64.of_int (ce * 8))) fe_mod)
      pp_table;
    Memory.protect mem ~addr:pp_base ~size:(256 * 8)
  end;
  {
    m;
    mem;
    pac;
    costs;
    funcs_by_name;
    func_addrs;
    code_map;
    global_addrs;
    string_addrs;
    heap_ptr = Layout.heap_base;
    allocs = [];
    sp = Int64.to_int Layout.stack_top;
    stack_mapped = Int64.to_int Layout.stack_top;
    cycles = 0;
    counts =
      { instrs = 0; loads = 0; stores = 0; pac_signs = 0; pac_auths = 0;
        pac_strips = 0; pp_calls = 0; pac_charges = 0 };
    events = [];
    out = Buffer.create 256;
    step_limit = 200_000_000;
    auth_failed = false;
    call_counts = Hashtbl.create 16;
    extern_counts = Hashtbl.create 16;
    attacks = [];
    rng = Rsti_util.Splitmix.create seed;
    ran = false;
    fpac;
    cfi;
    backend;
    shadow = Hashtbl.create 256;
    profiling = profile;
    prof_sites =
      (let h = Hashtbl.create 64 in
       if profile then Hashtbl.replace h ("_start", 0) boot;
       h);
    cur_site = boot;
    recording = flight > 0;
    fr_buf = (if flight > 0 then Array.make flight dummy_op else [||]);
    fr_next = 0;
    signers = Hashtbl.create (if flight > 0 then 64 else 1);
    incidents = [];
    corrupt_at = None;
    cur_line = 0;
  }

let pp_meta_base = Int64.add Layout.rodata_base 0x8000L

let pac_ctx t = t.pac

let global_addr t name =
  match Hashtbl.find_opt t.global_addrs name with
  | Some a -> a
  | None -> invalid_arg ("Interp.global_addr: unknown global " ^ name)

let func_addr t name =
  match Hashtbl.find_opt t.func_addrs name with
  | Some a -> a
  | None -> invalid_arg ("Interp.func_addr: unknown function " ^ name)

(* ------------------------------------------------------------------ *)
(* Attacker hooks                                                      *)
(* ------------------------------------------------------------------ *)

(* Every scenario corruption goes through the intruder's store hooks, so
   tagging the first one here marks the corruption point detection
   latency is measured from — no per-scenario bookkeeping needed. *)
let tag_corruption t =
  if t.corrupt_at = None then
    t.corrupt_at <- Some (t.cycles, t.counts.instrs)

let intruder_of t =
  {
    read_word = (fun a -> Memory.read_u64 t.mem a);
    write_word =
      (fun a v ->
        tag_corruption t;
        Memory.write_u64_raw t.mem a v);
    read_string = (fun a -> Memory.read_cstring t.mem a);
    write_string =
      (fun a s ->
        tag_corruption t;
        Memory.write_cstring t.mem a s);
    global_addr = (fun n -> global_addr t n);
    func_addr = (fun n -> func_addr t n);
    heap_allocs = (fun () -> t.allocs);
    note = (fun s -> emit_event t (Ev_attack s));
  }

let bump _t tbl name =
  let n = (match Hashtbl.find_opt tbl name with Some n -> n | None -> 0) + 1 in
  Hashtbl.replace tbl name n;
  n

let fire_attacks t trig =
  List.iter
    (fun atk -> if atk.trigger = trig then atk.action (intruder_of t))
    t.attacks

(* ------------------------------------------------------------------ *)
(* Value and memory helpers                                            *)
(* ------------------------------------------------------------------ *)

let[@inline] charge t c =
  t.cycles <- t.cycles + c;
  if t.profiling then t.cur_site.s_cycles <- t.cur_site.s_cycles + c

let[@inline] step t =
  let c = t.counts in
  c.instrs <- c.instrs + 1;
  if t.profiling then t.cur_site.s_instrs <- t.cur_site.s_instrs + 1;
  if c.instrs > t.step_limit then raise (Trap_exn Step_limit_exceeded)

(* Site switching, called (under [profiling] only) before each
   instruction executes: terminator and call-dispatch charges attribute
   to the site of the last instruction that ran, which keeps the
   partition exact without threading a site through every helper. *)
let set_site t fname line =
  let cur = t.cur_site in
  if not (cur.s_func == fname && cur.s_line = line) then
    let key = (fname, line) in
    match Hashtbl.find_opt t.prof_sites key with
    | Some s -> t.cur_site <- s
    | None ->
        let s =
          {
            s_func = fname;
            s_line = line;
            s_cycles = 0;
            s_instrs = 0;
            s_pac_charges = 0;
            s_strips = 0;
            s_pp_calls = 0;
          }
        in
        Hashtbl.replace t.prof_sites key s;
        t.cur_site <- s

let prof_pac t n =
  if t.profiling then
    t.cur_site.s_pac_charges <- t.cur_site.s_pac_charges + n

let prof_strip t =
  if t.profiling then t.cur_site.s_strips <- t.cur_site.s_strips + 1

let prof_pp t =
  if t.profiling then t.cur_site.s_pp_calls <- t.cur_site.s_pp_calls + 1

(* ------------------------------------------------------------------ *)
(* PAC flight recorder                                                 *)
(* ------------------------------------------------------------------ *)

(* The modifier constant an instruction carries, before the runtime
   slot-address XOR: the static Equiv class identity. *)
let mstatic = function Mc c | Ml (c, _) | Mbad (c, _) -> c

let op_kind_to_string = function
  | Op_sign -> "sign"
  | Op_auth -> "auth"
  | Op_resign -> "resign"
  | Op_strip -> "strip"
  | Op_pp_sign -> "pp_sign"
  | Op_pp_auth -> "pp_auth"

(* Callers guard on [t.recording]; this allocates one op record. *)
let record_op t ~kind ~func ~key ~static_mod ~modifier ~src ~result ~ok =
  let op =
    {
      op_kind = kind;
      op_func = func;
      op_line = t.cur_line;
      op_key = key;
      op_static_mod = static_mod;
      op_modifier = modifier;
      op_src = src;
      op_result = result;
      op_ok = ok;
      op_cycle = t.cycles;
      op_instr = t.counts.instrs;
    }
  in
  t.fr_buf.(t.fr_next mod Array.length t.fr_buf) <- op;
  t.fr_next <- t.fr_next + 1;
  (match kind with
  | Op_sign | Op_pp_sign | Op_resign ->
      if ok then Hashtbl.replace t.signers result op
  | Op_auth | Op_pp_auth | Op_strip -> ());
  op

let flight_window t =
  let cap = Array.length t.fr_buf in
  let n = min t.fr_next cap in
  List.init n (fun i -> t.fr_buf.((t.fr_next - n + i) mod cap))

(* Build and store the incident for a failing auth. The failing op has
   already been pushed into the ring, so the window ends with it. *)
let record_incident t ~func ~key ~static_mod ~modifier ~ptr =
  let corrupt = t.corrupt_at in
  let latency f =
    Option.map (fun (cy, ins) -> f (t.cycles, t.counts.instrs) (cy, ins)) corrupt
  in
  let inc =
    {
      inc_func = func;
      inc_line = t.cur_line;
      inc_key = key;
      inc_static_mod = static_mod;
      inc_modifier = modifier;
      inc_ptr = ptr;
      inc_signer = Hashtbl.find_opt t.signers ptr;
      inc_window = flight_window t;
      inc_cycle = t.cycles;
      inc_instr = t.counts.instrs;
      inc_corrupt = corrupt;
      inc_latency_cycles = latency (fun (now, _) (cy, _) -> now - cy);
      inc_latency_instrs = latency (fun (_, now) (_, ins) -> now - ins);
    }
  in
  t.incidents <- inc :: t.incidents

let mem_fault t func fault =
  Trap_exn
    (Mem_fault
       { fault = Memory.fault_to_string fault; func; after_auth_fail = t.auth_failed })

let malloc t size =
  if size < 0 || size > 0x1000000 then 0L (* 16 MiB cap: huge requests fail *)
  else begin
  let size = max 1 size in
  let addr = t.heap_ptr in
  Memory.map t.mem ~addr ~size;
  t.heap_ptr <- Int64.add t.heap_ptr (Int64.of_int ((size + 15) / 16 * 16));
  t.allocs <- (addr, size) :: t.allocs;
  addr
  end

(* A C [size_t] argument: a negative or oversized count is a huge one. *)
let size_t v = if v < 0L || v > Int64.of_int max_int then max_int else Int64.to_int v

(* ------------------------------------------------------------------ *)
(* printf                                                              *)
(* ------------------------------------------------------------------ *)

let format_printf t fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> 0L
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c = '%' && !i + 1 < n then begin
      incr i;
      (* skip width/flags *)
      while !i < n && (match fmt.[!i] with '0' .. '9' | '-' | '.' | 'l' -> true | _ -> false) do
        incr i
      done;
      (match fmt.[!i] with
      | 'd' | 'i' | 'u' -> Buffer.add_string buf (Int64.to_string (next ()))
      | 'x' -> Buffer.add_string buf (Printf.sprintf "%Lx" (next ()))
      | 'p' -> Buffer.add_string buf (Printf.sprintf "0x%Lx" (next ()))
      | 'c' -> Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand (next ()) 0xFFL))
                                    )
      | 's' -> Buffer.add_string buf (Memory.read_cstring t.mem (next ()))
      | 'f' | 'g' ->
          Buffer.add_string buf (Printf.sprintf "%g" (Int64.float_of_bits (next ())))
      | '%' -> Buffer.add_char buf '%'
      | c -> Buffer.add_char buf c);
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let stack_limit = Int64.to_int Layout.stack_limit

(* Loads and stores honour the C type's width: char is one byte,
   everything else a 64-bit word. *)
let is_char ty = match Ctype.strip_const ty with Ctype.Char -> true | _ -> false

(* What every instruction does before its own work. *)
let[@inline] enter t fname line =
  if t.profiling then set_site t fname line;
  if t.recording then t.cur_line <- line;
  step t

(* An instruction that computes one value and cannot trap. *)
let[@inline] arith t fname line cost fr d v =
  enter t fname line;
  charge t cost;
  set64 fr d v

let[@inline] result fr d v = if d >= 0 then set64 fr d v

let arg_list fr offs = List.init (Array.length offs) (fun i -> get64 fr offs.(i))

let modv fr = function
  | Mc c -> c
  | Ml (c, o) -> Int64.logxor c (get64 fr o)
  | Mbad (_, e) -> raise e

let[@inline always] binop_int op a b fname =
  match op with
  | Ast.Add -> Int64.add a b
  | Ast.Sub -> Int64.sub a b
  | Ast.Mul -> Int64.mul a b
  | Ast.Div ->
      if b = 0L then raise (Trap_exn (Div_by_zero fname)) else Int64.div a b
  | Ast.Mod ->
      if b = 0L then raise (Trap_exn (Div_by_zero fname)) else Int64.rem a b
  | Ast.Eq -> if Int64.equal a b then 1L else 0L
  | Ast.Ne -> if Int64.equal a b then 0L else 1L
  | Ast.Lt -> if Int64.compare a b < 0 then 1L else 0L
  | Ast.Le -> if Int64.compare a b <= 0 then 1L else 0L
  | Ast.Gt -> if Int64.compare a b > 0 then 1L else 0L
  | Ast.Ge -> if Int64.compare a b >= 0 then 1L else 0L
  | Ast.Bitand -> Int64.logand a b
  | Ast.Bitor -> Int64.logor a b
  | Ast.Bitxor -> Int64.logxor a b
  | Ast.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Ast.Shr -> Int64.shift_right a (Int64.to_int b land 63)
  | Ast.Logand -> if a <> 0L && b <> 0L then 1L else 0L
  | Ast.Logor -> if a <> 0L || b <> 0L then 1L else 0L

let[@inline always] binop_float op a b fname =
  let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
  let bool v = if v then 1L else 0L in
  match op with
  | Ast.Add -> Int64.bits_of_float (x +. y)
  | Ast.Sub -> Int64.bits_of_float (x -. y)
  | Ast.Mul -> Int64.bits_of_float (x *. y)
  | Ast.Div -> Int64.bits_of_float (x /. y)
  | Ast.Mod -> Int64.bits_of_float (Float.rem x y)
  | Ast.Eq -> bool (x = y)
  | Ast.Ne -> bool (x <> y)
  | Ast.Lt -> bool (x < y)
  | Ast.Le -> bool (x <= y)
  | Ast.Gt -> bool (x > y)
  | Ast.Ge -> bool (x >= y)
  | Ast.Bitand | Ast.Bitor | Ast.Bitxor | Ast.Shl | Ast.Shr | Ast.Logand
  | Ast.Logor ->
      ignore fname;
      binop_int op a b fname

(* ------------------------------------------------------------------ *)
(* Builtins (the simulated libc)                                       *)
(* ------------------------------------------------------------------ *)

let rec run_builtin t name (args : int64 list) : int64 =
  let n = bump t t.extern_counts name in
  emit_event t (Ev_extern (name, args));
  charge t t.costs.extern_call;
  let result =
    try run_builtin_body t name args
    with Memory.Fault fault -> raise (mem_fault t name fault)
  in
  (* Hooks fire after the call completes, so "on the nth malloc" sees the
     allocation it corrupts. *)
  fire_attacks t (On_extern (name, n));
  result

and run_builtin_body t name (args : int64 list) : int64 =
  let arg i = match List.nth_opt args i with Some v -> v | None -> 0L in
  let sarg i = Memory.read_cstring t.mem (arg i) in
  match name with
  | "malloc" -> malloc t (Int64.to_int (arg 0))
  | "calloc" -> malloc t (Int64.to_int (arg 0) * Int64.to_int (arg 1))
  | "mmap" -> malloc t (Int64.to_int (arg 1))
  | "free" -> 0L
  | "printf" | "fprintf" ->
      let off = if name = "fprintf" then 1 else 0 in
      let s = format_printf t (sarg off) (List.filteri (fun i _ -> i > off) args) in
      Buffer.add_string t.out s;
      emit_event t (Ev_output s);
      Int64.of_int (String.length s)
  | "snprintf" ->
      let s = format_printf t (sarg 2) (List.filteri (fun i _ -> i > 2) args) in
      let cap = Int64.to_int (arg 1) in
      let s' = if String.length s >= cap && cap > 0 then String.sub s 0 (cap - 1) else s in
      Memory.write_cstring t.mem (arg 0) s';
      Int64.of_int (String.length s)
  | "puts" ->
      let s = sarg 0 ^ "\n" in
      Buffer.add_string t.out s;
      emit_event t (Ev_output s);
      0L
  | "putchar" ->
      Buffer.add_char t.out (Char.chr (Int64.to_int (Int64.logand (arg 0) 0xFFL)));
      arg 0
  | "strlen" -> Int64.of_int (String.length (sarg 0))
  | "strcmp" -> Int64.of_int (compare (sarg 0) (sarg 1))
  | "strncmp" ->
      let cap s n = if String.length s > n then String.sub s 0 n else s in
      let n = size_t (arg 2) in
      Int64.of_int (compare (cap (sarg 0) n) (cap (sarg 1) n))
  | "strcpy" ->
      (* Deliberately unsafe, like the real thing: this is the classic
         buffer-overflow vector the attack scenarios exploit. *)
      Memory.write_cstring t.mem (arg 0) (sarg 1);
      arg 0
  | "strncpy" ->
      let s = sarg 1 and n = size_t (arg 2) in
      let s = if String.length s > n then String.sub s 0 n else s in
      Memory.write_cstring t.mem (arg 0) s;
      arg 0
  | "strcat" ->
      Memory.write_cstring t.mem
        (Int64.add (arg 0) (Int64.of_int (String.length (sarg 0))))
        (sarg 1);
      arg 0
  | "memcpy" | "memmove" ->
      let n = size_t (arg 2) in
      let b = Memory.read_bytes t.mem (arg 1) n in
      Memory.write_bytes t.mem (arg 0) b;
      arg 0
  | "memset" ->
      let v = Int64.to_int (Int64.logand (arg 1) 0xFFL) in
      let n = size_t (arg 2) in
      for i = 0 to n - 1 do
        Memory.write_u8 t.mem (Int64.add (arg 0) (Int64.of_int i)) v
      done;
      arg 0
  | "strstr" -> (
      let hay = sarg 0 and needle = sarg 1 in
      if needle = "" then arg 0
      else
        let hl = String.length hay and nl = String.length needle in
        let rec find i =
          if i + nl > hl then 0L
          else if String.sub hay i nl = needle then Int64.add (arg 0) (Int64.of_int i)
          else find (i + 1)
        in
        find 0)
  | "strchr" -> (
      let s = sarg 0 and c = Char.chr (Int64.to_int (Int64.logand (arg 1) 0xFFL)) in
      match String.index_opt s c with
      | Some i -> Int64.add (arg 0) (Int64.of_int i)
      | None -> 0L)
  | "atoi" -> ( try Int64.of_string (String.trim (sarg 0)) with _ -> 0L)
  | "abs" -> Int64.abs (arg 0)
  | "exit" -> raise (Exit_exn (arg 0))
  | "rand" -> Int64.of_int (Rsti_util.Splitmix.int t.rng 0x7FFFFFFF)
  | "srand" ->
      t.rng <- Rsti_util.Splitmix.create (arg 0);
      0L
  | "sqrt" -> Int64.bits_of_float (sqrt (Int64.float_of_bits (arg 0)))
  | "fabs" -> Int64.bits_of_float (Float.abs (Int64.float_of_bits (arg 0)))
  | "floor" -> Int64.bits_of_float (Float.floor (Int64.float_of_bits (arg 0)))
  | "ceil" -> Int64.bits_of_float (Float.ceil (Int64.float_of_bits (arg 0)))
  | "pow" ->
      Int64.bits_of_float
        (Float.pow (Int64.float_of_bits (arg 0)) (Int64.float_of_bits (arg 1)))
  | "log" -> Int64.bits_of_float (Float.log (Int64.float_of_bits (arg 0)))
  | "getenv" -> 0L
  | "strdup" ->
      let s = sarg 0 in
      let p = malloc t (String.length s + 1) in
      if p <> 0L then Memory.write_cstring t.mem p s;
      p
  | "qsort" ->
      (* A real qsort: the library calls back *into* the (instrumented)
         program through the comparator pointer — the uninstrumented-
         library boundary case of section 4.6. Insertion sort keeps the
         comparator call count deterministic. *)
      let base = arg 0 in
      let n = Int64.to_int (arg 1) in
      let size = Int64.to_int (arg 2) in
      let cmp_ptr = arg 3 in
      let call_cmp a b =
        match Hashtbl.find_opt t.code_map cmp_ptr with
        | Some (`Defined cf) -> call_list t cf [ a; b ]
        | Some (`Libc nm) -> run_builtin t nm [ a; b ]
        | None ->
            raise
              (Trap_exn
                 (Bad_indirect_call
                    { target = cmp_ptr; func = "qsort"; after_auth_fail = t.auth_failed }))
      in
      if n > 1 && size > 0 && size <= 4096 then begin
        let elem i = Int64.add base (Int64.of_int (i * size)) in
        let buf = Bytes.create size in
        for i = 1 to n - 1 do
          Bytes.blit (Memory.read_bytes t.mem (elem i) size) 0 buf 0 size;
          let j = ref (i - 1) in
          let continue_ = ref true in
          while !j >= 0 && !continue_ do
            (* compare element j with the held element: the comparator
               receives the *addresses*, C-style *)
            Memory.write_bytes t.mem (elem (!j + 1)) buf;
            let held_addr = elem (!j + 1) in
            if Int64.compare (call_cmp (elem !j) held_addr) 0L > 0 then begin
              Memory.write_bytes t.mem (elem (!j + 1))
                (Memory.read_bytes t.mem (elem !j) size);
              decr j
            end
            else continue_ := false
          done;
          Memory.write_bytes t.mem (elem (!j + 1)) buf
        done
      end;
      0L
  | "system" | "mprotect" | "dlopen" | "exec" | "socket" | "send" | "recv"
  | "open" | "read" | "write" | "close" ->
      (* Security-sensitive sinks: reaching one of these with attacker-
         controlled state is what scenarios check for in the event list. *)
      0L
  | _ ->
      (* A declared extern we have no model for behaves as a generic libc
         stub: it runs (the event is recorded above) and returns 0. This
         is what attack scenarios that redirect control into arbitrary
         libc functions (AOCR's _IO_new_file_overflow, etc.) rely on. *)
      if Hashtbl.mem t.func_addrs name then 0L
      else raise (Trap_exn (Unknown_function name))

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

and mac_of t key ~modifier value =
  Rsti_pa.Qarma.encrypt
    ~key:(Rsti_pa.Key.lookup (Rsti_pa.Pac.keys t.pac) key)
    ~tweak:modifier value

and exec_shadow_mac t fname fr (p : cpac) =
  (* section 7: the same scope-type modifiers enforced through a
     CCFI-style MAC stored beside the object instead of in pointer bits.
     Pointers stay raw; each op pays the MAC plus a shadow access. *)
  let src = get64 fr p.src in
  let m = modv fr p.md in
  let slot = get64 fr p.slot in
  match p.kind with
  | Ir.Ksign ->
      charge t (t.costs.pac + t.costs.load + t.costs.store);
      t.counts.pac_signs <- t.counts.pac_signs + 1;
      t.counts.pac_charges <- t.counts.pac_charges + 1;
      prof_pac t 1;
      if Int64.equal src 0L then Hashtbl.remove t.shadow slot
      else Hashtbl.replace t.shadow slot (mac_of t p.key ~modifier:m src);
      if t.recording then
        ignore
          (record_op t ~kind:Op_sign ~func:fname ~key:p.key
             ~static_mod:(mstatic p.md) ~modifier:m ~src ~result:src
             ~ok:true);
      set64 fr p.dst src
  | Ir.Kauth ->
      charge t (t.costs.pac + t.costs.load);
      t.counts.pac_auths <- t.counts.pac_auths + 1;
      t.counts.pac_charges <- t.counts.pac_charges + 1;
      prof_pac t 1;
      let ok =
        if Int64.equal src 0L then not (Hashtbl.mem t.shadow slot)
        else
          match Hashtbl.find_opt t.shadow slot with
          | Some expected -> Int64.equal expected (mac_of t p.key ~modifier:m src)
          | None -> false
      in
      if ok then begin
        if t.recording then
          ignore
            (record_op t ~kind:Op_auth ~func:fname ~key:p.key
               ~static_mod:(mstatic p.md) ~modifier:m ~src
               ~result:src ~ok:true);
        set64 fr p.dst src
      end
      else begin
        t.auth_failed <- true;
        emit_event t (Ev_auth_fail { func = fname; modifier = m; ptr = src });
        if t.recording then begin
          ignore
            (record_op t ~kind:Op_auth ~func:fname ~key:p.key
               ~static_mod:(mstatic p.md) ~modifier:m ~src
               ~result:src ~ok:false);
          record_incident t ~func:fname ~key:p.key
            ~static_mod:(mstatic p.md) ~modifier:m ~ptr:src
        end;
        if t.fpac then
          raise (Trap_exn (Pac_auth_failure { func = fname; modifier = m; ptr = src }));
        set64 fr p.dst (Rsti_pa.Vaddr.corrupt (Rsti_pa.Pac.layout t.pac) src)
      end
  | Ir.Kresign ->
      (* casts carry no per-slot state under the shadow backend *)
      charge t (2 * t.costs.pac);
      t.counts.pac_auths <- t.counts.pac_auths + 1;
      t.counts.pac_signs <- t.counts.pac_signs + 1;
      t.counts.pac_charges <- t.counts.pac_charges + 2;
      prof_pac t 2;
      if t.recording then
        ignore
          (record_op t ~kind:Op_resign ~func:fname ~key:p.key
             ~static_mod:(mstatic p.md) ~modifier:m ~src ~result:src
             ~ok:true);
      set64 fr p.dst src
  | Ir.Kstrip ->
      charge t t.costs.strip;
      t.counts.pac_strips <- t.counts.pac_strips + 1;
      prof_strip t;
      if t.recording then
        ignore
          (record_op t ~kind:Op_strip ~func:fname ~key:p.key
             ~static_mod:(mstatic p.md)
             ~modifier:(mstatic p.md) ~src ~result:src ~ok:true);
      set64 fr p.dst src

and exec_pac t fname fr (p : cpac) =
  let src = get64 fr p.src in
  let key = p.key in
  let record_fail ~kind ~static_mod ~result modifier ptr =
    t.auth_failed <- true;
    emit_event t (Ev_auth_fail { func = fname; modifier; ptr });
    if t.recording then begin
      ignore
        (record_op t ~kind ~func:fname ~key ~static_mod ~modifier ~src:ptr
           ~result ~ok:false);
      record_incident t ~func:fname ~key ~static_mod ~modifier ~ptr
    end;
    (* ARMv8.6 FPAC (implemented by the M1): a failing aut* traps
       synchronously instead of leaving a corrupted pointer behind.
       Without it, a later xpac strip could launder the corruption. *)
    if t.fpac then
      raise (Trap_exn (Pac_auth_failure { func = fname; modifier; ptr }))
  in
  match p.kind with
  | Ir.Ksign ->
      charge t (t.costs.pac + t.costs.pac_spill);
      t.counts.pac_signs <- t.counts.pac_signs + 1;
      t.counts.pac_charges <- t.counts.pac_charges + 1;
      prof_pac t 1;
      let m = modv fr p.md in
      let signed = Rsti_pa.Pac.sign t.pac ~key ~modifier:m src in
      if t.recording then
        ignore
          (record_op t ~kind:Op_sign ~func:fname ~key
             ~static_mod:(mstatic p.md) ~modifier:m ~src
             ~result:signed ~ok:true);
      set64 fr p.dst signed
  | Ir.Kauth -> (
      charge t (t.costs.pac + t.costs.pac_spill);
      t.counts.pac_auths <- t.counts.pac_auths + 1;
      t.counts.pac_charges <- t.counts.pac_charges + 1;
      prof_pac t 1;
      let m = modv fr p.md in
      match Rsti_pa.Pac.auth t.pac ~key ~modifier:m src with
      | Ok v ->
          if t.recording then
            ignore
              (record_op t ~kind:Op_auth ~func:fname ~key
                 ~static_mod:(mstatic p.md) ~modifier:m ~src
                 ~result:v ~ok:true);
          set64 fr p.dst v
      | Error corrupted ->
          record_fail ~kind:Op_auth ~static_mod:(mstatic p.md)
            ~result:corrupted m src;
          set64 fr p.dst corrupted)
  | Ir.Kresign -> (
      charge t (2 * (t.costs.pac + t.costs.pac_spill));
      t.counts.pac_auths <- t.counts.pac_auths + 1;
      t.counts.pac_signs <- t.counts.pac_signs + 1;
      t.counts.pac_charges <- t.counts.pac_charges + 2;
      prof_pac t 2;
      (* Fused aut+pac. In this codebase's discipline in-flight values are
         raw (canonical), so the pair acts as a checked identity; a signed
         value (the pp mechanism) gets a real authenticate + re-sign. *)
      if not (Rsti_pa.Pac.is_signed t.pac src) then begin
        if t.recording then
          ignore
            (record_op t ~kind:Op_resign ~func:fname ~key
               ~static_mod:(mstatic p.md)
               ~modifier:(modv fr p.md)
               ~src ~result:src ~ok:true);
        set64 fr p.dst src
      end
      else begin
        let mf = modv fr p.md_from in
        let mt = modv fr p.md in
        match Rsti_pa.Pac.auth t.pac ~key ~modifier:mf src with
        | Ok v ->
            let resigned = Rsti_pa.Pac.sign t.pac ~key ~modifier:mt v in
            if t.recording then
              ignore
                (record_op t ~kind:Op_resign ~func:fname ~key
                   ~static_mod:(mstatic p.md) ~modifier:mt ~src
                   ~result:resigned ~ok:true);
            set64 fr p.dst resigned
        | Error corrupted ->
            record_fail ~kind:Op_resign
              ~static_mod:(mstatic p.md_from) ~result:corrupted mf
              src;
            set64 fr p.dst corrupted
      end)
  | Ir.Kstrip ->
      charge t t.costs.strip;
      t.counts.pac_strips <- t.counts.pac_strips + 1;
      prof_strip t;
      let stripped = Rsti_pa.Pac.strip t.pac src in
      if t.recording then
        ignore
          (record_op t ~kind:Op_strip ~func:fname ~key
             ~static_mod:(mstatic p.md)
             ~modifier:(mstatic p.md) ~src ~result:stripped
             ~ok:true);
      set64 fr p.dst stripped

and exec_pp t fname fr pp =
  charge t t.costs.pp;
  t.counts.pp_calls <- t.counts.pp_calls + 1;
  prof_pp t;
  let fe_modifier ce =
    Memory.read_u64 t.mem (Int64.add pp_meta_base (Int64.of_int (ce * 8)))
  in
  match pp with
  | Cpp_add -> () (* table is static in our model; cost only *)
  | Cpp_sign { dst; src; ce; slot } ->
      let fe = fe_modifier ce in
      let m = Int64.logxor fe (get64 fr slot) in
      t.counts.pac_signs <- t.counts.pac_signs + 1;
      let signed =
        Rsti_pa.Pac.sign t.pac ~key:Rsti_pa.Key.DA ~modifier:m
          (get64 fr src)
      in
      if t.recording then
        ignore
          (record_op t ~kind:Op_pp_sign ~func:fname ~key:Rsti_pa.Key.DA
             ~static_mod:fe ~modifier:m ~src:(get64 fr src) ~result:signed
             ~ok:true);
      set64 fr dst signed
  | Cpp_add_tbi { dst; src; ce } ->
      set64 fr dst (Rsti_pa.Vaddr.with_top_byte (get64 fr src) ce)
  | Cpp_auth { dst; src; slot } -> (
      let v = get64 fr src in
      let ce = Rsti_pa.Vaddr.top_byte v in
      let fe = fe_modifier ce in
      let m = Int64.logxor fe (get64 fr slot) in
      t.counts.pac_auths <- t.counts.pac_auths + 1;
      match Rsti_pa.Pac.auth t.pac ~key:Rsti_pa.Key.DA ~modifier:m v with
      | Ok ok ->
          if t.recording then
            ignore
              (record_op t ~kind:Op_pp_auth ~func:fname ~key:Rsti_pa.Key.DA
                 ~static_mod:fe ~modifier:m ~src:v ~result:ok ~ok:true);
          set64 fr dst (Rsti_pa.Vaddr.with_top_byte ok 0)
      | Error corrupted ->
          t.auth_failed <- true;
          emit_event t (Ev_auth_fail { func = fname; modifier = m; ptr = v });
          if t.recording then begin
            ignore
              (record_op t ~kind:Op_pp_auth ~func:fname ~key:Rsti_pa.Key.DA
                 ~static_mod:fe ~modifier:m ~src:v ~result:corrupted ~ok:false);
            record_incident t ~func:fname ~key:Rsti_pa.Key.DA ~static_mod:fe
              ~modifier:m ~ptr:v
          end;
          if t.fpac then
            raise (Trap_exn (Pac_auth_failure { func = fname; modifier = m; ptr = v }));
          set64 fr dst corrupted)

(* Signature-based CFI (the LLVM cfi-icall / vfGuard style baseline the
   paper's introduction contrasts RSTI with): an indirect call may only
   land on a function whose prototype matches the call site's static
   signature. It sees nothing of data pointers. *)
and signatures_match (arg_tys : Ctype.t list) (param_tys : Ctype.t list) variadic =
  let rec go a p =
    match (a, p) with
    | [], [] -> true
    | _ :: _, [] -> variadic
    | [], _ :: _ -> false
    | ta :: a', tp :: p' ->
        Ctype.equal (Ctype.strip_all_quals ta) (Ctype.strip_all_quals tp) && go a' p'
  in
  go arg_tys param_tys

and check_cfi caller arg_tys (f : Ir.func) =
  let param_tys = List.map (fun (p : Rsti_minic.Tast.var) -> p.v_ty) f.params in
  if not (signatures_match arg_tys param_tys false) then
    raise (Trap_exn (Cfi_violation { func = caller; target = f.name }))

and check_cfi_libc t caller arg_tys name =
  match List.assoc_opt name t.m.Ir.m_externs with
  | Some (Ctype.Func sg) ->
      if not (signatures_match arg_tys sg.Ctype.params sg.Ctype.variadic) then
        raise (Trap_exn (Cfi_violation { func = caller; target = name }))
  | _ -> () (* unknown prototype: coarse CFI allows it *)

(* ------------------------------------------------------------------ *)
(* Calls and the compiled form                                         *)
(* ------------------------------------------------------------------ *)

and call_list t cf args =
  let c = code_of t cf in
  let fr = Bytes.copy c.template in
  List.iteri (fun i a -> if i < c.nregs then set64 fr (8 * i) a) args;
  invoke t cf c fr

(* A call from compiled code: the arguments are copied slot to slot. *)
and call_frame t cf fr offs =
  let c = code_of t cf in
  let callee = Bytes.copy c.template in
  for i = 0 to min (Array.length offs) c.nregs - 1 do
    set64 callee (8 * i) (get64 fr offs.(i))
  done;
  invoke t cf c callee

and invoke t cf c fr =
  let name = cf.fn.name in
  let n = bump t t.call_counts name in
  emit_event t (Ev_call name);
  fire_attacks t (On_call (name, n));
  charge t t.costs.call;
  let saved_sp = t.sp in
  let result = exec t c fr 0 in
  t.sp <- saved_sp;
  result

and exec t c fr label =
  let b = c.blocks.(label) in
  let instrs = b.instrs in
  for i = 0 to Array.length instrs - 1 do
    (Array.unsafe_get instrs i) fr
  done;
  match b.term with
  | Cret o ->
      charge t t.costs.branch;
      if o < 0 then 0L else get64 fr o
  | Cbr l ->
      charge t t.costs.branch;
      step t;
      exec t c fr l
  | Ccondbr (o, l1, l2) ->
      charge t t.costs.branch;
      step t;
      exec t c fr (if get64 fr o <> 0L then l1 else l2)
  | Cfail (stepped, e) ->
      if stepped then begin
        charge t t.costs.branch;
        step t
      end;
      raise e

and code_of t cf =
  match cf.code with
  | Some c -> c
  | None ->
      let c = compile t cf.fn in
      cf.code <- Some c;
      c

(* Resolve every static fact of [fn] once: operand slots, sizes, field
   offsets, access widths, operators, callees. A fact that cannot be
   resolved (an unknown global, struct or field, a string index out of
   range) is not an error until its instruction runs: the instruction
   then raises what resolving it raised, operands in evaluation order. *)
and compile t (fn : Ir.func) =
  let nregs = fn.nregs in
  let consts = Hashtbl.create 16 in
  let const v =
    match Hashtbl.find_opt consts v with
    | Some o -> o
    | None ->
        let o = 8 * (nregs + Hashtbl.length consts) in
        Hashtbl.replace consts v o;
        o
  in
  let reg r = if r < 0 || r >= nregs then invalid_arg "index out of bounds" else 8 * r in
  let opnd : Ir.value -> int = function
    | Ir.Reg r -> reg r
    | Ir.Imm n -> const n
    | Ir.Fimm x -> const (Int64.bits_of_float x)
    | Ir.Global g -> const (global_addr t g)
    | Ir.Funcaddr f -> const (func_addr t f)
    | Ir.Str i -> const t.string_addrs.(i)
    | Ir.Null -> const 0L
  in
  let term : Ir.terminator -> cterm = function
    | Ir.Ret None -> Cret (-1)
    | Ir.Ret (Some v) -> ( try Cret (opnd v) with e -> Cfail (false, e))
    | Ir.Br l -> Cbr l
    | Ir.Condbr (v, a, b) -> ( try Ccondbr (opnd v, a, b) with e -> Cfail (true, e))
    | Ir.Unreachable -> Cfail (false, Trap_exn (Unknown_function (fn.name ^ ":unreachable")))
  in
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        {
          instrs = Array.of_list (List.map (compile_instr t fn.name opnd reg) b.instrs);
          term = term b.term;
        })
      fn.blocks
  in
  let template = Bytes.make (8 * (nregs + Hashtbl.length consts)) '\000' in
  Hashtbl.iter (fun v o -> set64 template o v) consts;
  { nregs; template; blocks }

(* Each closure keeps the per-instruction order of the machine: site,
   flight-recorder line, step (and with it the step limit), then the
   instruction's own charges and effects. *)
and compile_instr t fname opnd reg (ins : Ir.instr) : Bytes.t -> unit =
  let line = match ins.dbg with Some d -> d.Rsti_ir.Dinfo.dl_line | None -> 0 in
  let costs = t.costs and n = t.counts in
  try
    match ins.i with
    | Ir.Alloca { dst; ty; _ } ->
        let size = max 8 (Ir.sizeof t.m ty) in
        let aligned = (size + 15) / 16 * 16 and d = reg dst in
        fun fr ->
          enter t fname line;
          charge t costs.alu;
          t.sp <- t.sp - aligned;
          if t.sp < stack_limit then raise (Trap_exn Stack_overflow);
          (* the pages above [stack_mapped] are mapped already *)
          if t.sp < t.stack_mapped then begin
            Memory.map t.mem ~addr:(Int64.of_int t.sp) ~size:aligned;
            t.stack_mapped <- t.sp
          end;
          set64 fr d (Int64.of_int t.sp)
    | Ir.Load { dst; addr; ty; _ } -> (
        let a = opnd addr in
        let d = reg dst and byte = is_char ty in
        fun fr ->
          enter t fname line;
          charge t costs.load;
          n.loads <- n.loads + 1;
          match
            if byte then Memory.load_byte t.mem fr ~addr:a ~dst:d
            else Memory.load_word t.mem fr ~addr:a ~dst:d
          with
          | () -> ()
          | exception Memory.Fault f -> raise (mem_fault t fname f))
    | Ir.Store { src; addr; ty; _ } -> (
        let v = opnd src in
        let a = opnd addr and byte = is_char ty in
        fun fr ->
          enter t fname line;
          charge t costs.store;
          n.stores <- n.stores + 1;
          match
            if byte then Memory.store_byte t.mem fr ~addr:a ~src:v
            else Memory.store_word t.mem fr ~addr:a ~src:v
          with
          | () -> ()
          | exception Memory.Fault f -> raise (mem_fault t fname f))
    | Ir.Gep { dst; base; sname; field } ->
        let off = Int64.of_int (fst (Ir.field_offset t.m sname field)) in
        let b = opnd base and d = reg dst in
        fun fr -> arith t fname line costs.gep fr d (Int64.add (get64 fr b) off)
    | Ir.Gepidx { dst; base; elem; idx } ->
        let size = Int64.of_int (Ir.sizeof t.m elem) in
        let i = opnd idx in
        let b = opnd base and d = reg dst in
        fun fr ->
          arith t fname line costs.gep fr d (Int64.add (get64 fr b) (Int64.mul size (get64 fr i)))
    | Ir.Bitcast { dst; src; _ } ->
        let s = opnd src and d = reg dst in
        fun fr -> arith t fname line costs.alu fr d (get64 fr s)
    | Ir.Binop { dst; op; fl; a; b } -> (
        let a = opnd a in
        let b = opnd b and d = reg dst in
        (* the operator may trap (division by zero), so it runs after the step *)
        match fl with
        | Ir.Iop ->
            fun fr ->
              enter t fname line;
              charge t costs.alu;
              set64 fr d (binop_int op (get64 fr a) (get64 fr b) fname)
        | Ir.Fop ->
            fun fr ->
              enter t fname line;
              charge t costs.alu;
              set64 fr d (binop_float op (get64 fr a) (get64 fr b) fname))
    | Ir.Neg { dst; fl; src } -> (
        let s = opnd src and d = reg dst in
        match fl with
        | Ir.Iop -> fun fr -> arith t fname line costs.alu fr d (Int64.neg (get64 fr s))
        | Ir.Fop ->
            fun fr ->
              arith t fname line costs.alu fr d
                (Int64.bits_of_float (-.Int64.float_of_bits (get64 fr s))))
    | Ir.Lognot { dst; src } ->
        let s = opnd src and d = reg dst in
        fun fr -> arith t fname line costs.alu fr d (if get64 fr s = 0L then 1L else 0L)
    | Ir.Bitnot { dst; src } ->
        let s = opnd src and d = reg dst in
        fun fr -> arith t fname line costs.alu fr d (Int64.lognot (get64 fr s))
    | Ir.Cast_num { dst; src; from_ty; to_ty } -> (
        let s = opnd src and d = reg dst and alu = costs.alu in
        match (Ctype.strip_all_quals from_ty, Ctype.strip_all_quals to_ty) with
        | (Ctype.Char | Ctype.Int | Ctype.Long), Ctype.Double ->
            fun fr ->
              arith t fname line alu fr d (Int64.bits_of_float (Int64.to_float (get64 fr s)))
        | Ctype.Double, (Ctype.Char | Ctype.Int | Ctype.Long) ->
            fun fr ->
              arith t fname line alu fr d (Int64.of_float (Int64.float_of_bits (get64 fr s)))
        | _, Ctype.Char -> fun fr -> arith t fname line alu fr d (Int64.logand (get64 fr s) 0xFFL)
        | _ -> fun fr -> arith t fname line alu fr d (get64 fr s))
    | Ir.Call { dst; callee; args; arg_tys; _ } -> (
        let offs = Array.of_list (List.map opnd args) in
        let d = match dst with Some r -> reg r | None -> -1 in
        match callee with
        | Ir.Direct name -> (
            match Hashtbl.find_opt t.funcs_by_name name with
            | Some cf ->
                fun fr ->
                  enter t fname line;
                  result fr d (call_frame t cf fr offs)
            | None when List.mem name builtin_names || Hashtbl.mem t.func_addrs name ->
                fun fr ->
                  enter t fname line;
                  result fr d (run_builtin t name (arg_list fr offs))
            | None ->
                fun _ ->
                  enter t fname line;
                  raise (Trap_exn (Unknown_function name)))
        | Ir.Indirect v -> (
            let c = opnd v in
            fun fr ->
              enter t fname line;
              let target = get64 fr c in
              match Hashtbl.find_opt t.code_map target with
              | Some (`Defined cf) ->
                  if t.cfi then check_cfi fname arg_tys cf.fn;
                  result fr d (call_frame t cf fr offs)
              | Some (`Libc name) ->
                  if t.cfi then check_cfi_libc t fname arg_tys name;
                  result fr d (run_builtin t name (arg_list fr offs))
              | None ->
                  raise
                    (Trap_exn
                       (Bad_indirect_call
                          { target; func = fname; after_auth_fail = t.auth_failed }))))
    | Ir.Pac p ->
        let src = opnd p.p_src in
        let cmod : Ir.modifier -> cmod = function
          | Ir.Mconst c -> Mc c
          | Ir.Mloc c -> ( try Ml (c, opnd p.p_slot_addr) with e -> Mbad (c, e))
        in
        let md = cmod p.p_mod and md_from = cmod p.p_mod_from in
        let shadow = t.backend = `Shadow_mac in
        let slot = if shadow then opnd p.p_slot_addr else -1 in
        let p = { kind = p.p_kind; dst = reg p.p_dst; src; key = p.p_key; md; md_from; slot } in
        if shadow then fun fr ->
          enter t fname line;
          exec_shadow_mac t fname fr p
        else fun fr ->
          enter t fname line;
          exec_pac t fname fr p
    | Ir.Pp pp ->
        let pp =
          match pp with
          | Ir.Pp_add _ -> Cpp_add
          | Ir.Pp_sign { dst; src; ce; slot_addr } ->
              let slot = opnd slot_addr in
              Cpp_sign { dst = reg dst; src = opnd src; ce; slot }
          | Ir.Pp_auth { dst; src; slot_addr } ->
              let src = opnd src in
              Cpp_auth { dst = reg dst; src; slot = opnd slot_addr }
          | Ir.Pp_add_tbi { dst; src; ce } -> Cpp_add_tbi { dst = reg dst; src = opnd src; ce }
        in
        fun fr ->
          enter t fname line;
          exec_pp t fname fr pp
  with e ->
    fun _ ->
      enter t fname line;
      raise e

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let run ?(attacks = []) ?step_limit ?(entry = "main") t =
  if t.ran then invalid_arg "Interp.run: machine already ran; create a fresh one";
  t.ran <- true;
  t.attacks <- attacks;
  Option.iter (fun l -> t.step_limit <- l) step_limit;
  let status =
    try
      (match Hashtbl.find_opt t.funcs_by_name Ir.global_init_name with
      | Some init -> ignore (call_list t init [])
      | None -> ());
      match Hashtbl.find_opt t.funcs_by_name entry with
      | Some f -> Exited (call_list t f [])
      | None -> Trapped (Unknown_function entry)
    with
    | Trap_exn tr -> Trapped tr
    | Exit_exn code -> Exited code
  in
  let profile tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let sites =
    if not t.profiling then []
    else
      Hashtbl.fold (fun _ s acc -> s :: acc) t.prof_sites []
      |> List.sort (fun a b ->
             match compare b.s_cycles a.s_cycles with
             | 0 -> compare (a.s_func, a.s_line) (b.s_func, b.s_line)
             | c -> c)
  in
  {
    status;
    cycles = t.cycles;
    counts = t.counts;
    events = List.rev t.events;
    output = Buffer.contents t.out;
    call_profile = profile t.call_counts;
    extern_profile = profile t.extern_counts;
    sites;
    incidents = List.rev t.incidents;
  }

(* A perf-report-style rendering of {!outcome.sites}. The percentage
   column is of the run's total cycles, so the top-N rows under-count
   exactly what the final "other" row holds. *)
let profile_report ?(top = 20) (o : outcome) =
  let total = max 1 o.cycles in
  let shown, rest =
    let rec split n = function
      | [] -> ([], [])
      | l when n = 0 -> ([], l)
      | x :: tl ->
          let a, b = split (n - 1) tl in
          (x :: a, b)
    in
    split top o.sites
  in
  let pct c = Printf.sprintf "%5.1f%%" (100. *. float_of_int c /. float_of_int total) in
  let row s =
    [
      Printf.sprintf "%s:%d" s.s_func s.s_line;
      string_of_int s.s_cycles;
      pct s.s_cycles;
      string_of_int s.s_instrs;
      string_of_int s.s_pac_charges;
      string_of_int s.s_strips;
      string_of_int s.s_pp_calls;
    ]
  in
  let rows = List.map row shown in
  let rows =
    if rest = [] then rows
    else
      let sum f = List.fold_left (fun a s -> a + f s) 0 rest in
      rows
      @ [
          [
            Printf.sprintf "(other: %d sites)" (List.length rest);
            string_of_int (sum (fun s -> s.s_cycles));
            pct (sum (fun s -> s.s_cycles));
            string_of_int (sum (fun s -> s.s_instrs));
            string_of_int (sum (fun s -> s.s_pac_charges));
            string_of_int (sum (fun s -> s.s_strips));
            string_of_int (sum (fun s -> s.s_pp_calls));
          ];
        ]
  in
  Rsti_util.Tab.render
    ~header:[ "site"; "cycles"; "%"; "instrs"; "pac"; "strip"; "pp" ]
    rows
