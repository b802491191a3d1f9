(* The seeded inputs of each workload. The workload seed drives every
   generated source, the PA-key seed of every call that accepts one, and
   the order in which items are issued; the system under test receives
   only the generated inputs. *)

module RT = Rsti_sti.Rsti_type
module W = Rsti_workloads
module A = Rsti_attacks

type workload = Static_spec | Simulate_suites | Attack_catalog

let workloads =
  [
    ("static-spec", Static_spec);
    ("simulate-suites", Simulate_suites);
    ("attack-catalog", Attack_catalog);
  ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* Items run per workload, in the closed loop of one caller: each item is
   issued when the previous one has finished, except that
   simulate-suites fans its items out over two scheduler workers. *)
let default_jobs = function
  | Static_spec | Attack_catalog -> 1
  | Simulate_suites -> 2

type item =
  | Static of { name : string; text : string }
      (** the whole static chain on one SPEC2006 kernel plus its
          generated library module *)
  | Kernel of W.Workload.t  (** one Fig. 9 kernel's [Run.measure] *)
  | Scenario of {
      table : string;
      sc : A.Scenario.t;
      mech : RT.mechanism;
      expect : A.Scenario.verdict option;
    }  (** one (scenario, mechanism) run to a verdict *)
  | Xval_catalog  (** the cross-validation catalog replays *)
  | Xval_generated of { prog : string; source : string; mech : RT.mechanism }
      (** the generated cross-validation replays of one program *)
  | Coverage  (** the incident coverage map over the whole catalog *)

let item_name = function
  | Static { name; _ } -> name
  | Kernel w -> W.Workload.suite_to_string w.W.Workload.suite ^ "/" ^ w.name
  | Scenario { table; sc; mech; _ } ->
      Printf.sprintf "%s/%s/%s" table sc.A.Scenario.id
        (RT.mechanism_to_string mech)
  | Xval_catalog -> "crossval/catalog"
  | Xval_generated { prog; mech; _ } ->
      Printf.sprintf "crossval/%s/%s" prog (RT.mechanism_to_string mech)
  | Coverage -> "incident/coverage"

let mix seed name =
  Int64.logxor
    (Rsti_util.Splitmix.next64 (Rsti_util.Splitmix.create (Int64.of_int seed)))
    (Int64.of_int (Hashtbl.hash name))

(* The PA-key seed of the PA probe's [Pac.make]; no item's public
   function takes one. *)
let pa_seed seed = mix seed "pa-keys"

(* A generated library module with the shape of [Spec2006.population]
   (the paper's NT/8 types) at [structs] struct types, drawn from the
   benchmark seed instead of the kernel name. *)
let population ~seed ~structs name =
  let config =
    {
      W.Generator.default with
      n_structs = structs;
      n_funcs = max 4 (structs * 2);
      n_globals = max 2 (structs / 2);
      cast_bias = 0.25;
      prefix = "zz_";
      emit_main = false;
      pp_typed_rate = 0.35;
      pp_erased_rate = 0.008;
    }
  in
  W.Generator.generate ~config ~seed:(mix seed name) ()

let nt_structs name = max 2 (List.assoc name W.Spec2006.paper_nt / 8)

(* Kernel source plus its generated population, joined the way
   [Workload.analysis_source] joins them. [scale] shrinks the population
   (the scaling ladder). *)
let static_text ?(scale = 1.0) ~seed (w : W.Workload.t) =
  let structs =
    max 2 (int_of_float (Float.round (float (nt_structs w.name) *. scale)))
  in
  W.Workload.analysis_source
    (W.Workload.make
       ~analysis_extra:(population ~seed ~structs w.name)
       ~name:w.name ~suite:w.suite ~description:w.description w.source)

(* The two SPEC2006 kernels whose static populations dominate a pass. *)
let largest = [ "dealII"; "xalancbmk" ]

(* The Fig. 9 kernels whose [Run.measure] takes 300 ms or more, about
   three times the median kernel. *)
let heavy =
  [
    "dealII"; "astar"; "hmmer"; "605.mcf_s"; "soplex"; "641.leela_s"; "mcf";
    "sphinx3"; "510.parest_r";
  ]

let kernels () =
  W.Spec2006.all @ W.Spec2017.all @ W.Nbench.all @ W.Pytorch.all @ W.Nginx.all

(* The (scenario, mechanism) runs, one group per victim program. *)
let scenario_groups () =
  let group table sc exp =
    List.map
      (fun mech -> Scenario { table; sc; mech; expect = List.assoc_opt mech exp })
      A.Incident.mechanisms
  in
  (* The test suite asserts every Table 1 row is detected by the three
     RSTI mechanisms; PARTS has no hand-written expectation there. *)
  let rsti_detects = List.map (fun m -> (m, A.Scenario.Detected)) RT.all_mechanisms in
  List.map (fun sc -> group "table1" sc rsti_detects) A.Catalog.all
  @ List.map
      (fun (sc, exp) -> group "table2" sc exp)
      (A.Substitution.expected @ A.Memory_safety.expected)

let rng ~seed what = Rsti_util.Splitmix.create (mix seed what)

let shuffle rng l =
  let a = Array.of_list l in
  Rsti_util.Splitmix.shuffle rng a;
  Array.to_list a

(* Every input of one pass, in issue order.

   - static-spec issues the sixteen small kernels in seeded order, then
     [dealII] and [xalancbmk] in seeded order. The cache keeps a pass's
     artifacts, so a kernel that follows one of those two runs beside
     tens of megabytes of its live artifacts and takes up to half as
     long again; a free shuffle would make the latency of the small
     kernels depend on the seed.
   - simulate-suites issues the heavy kernels in seeded order, then the
     others in seeded order. Its two workers finish a pass together only
     if no long kernel starts late: in free order the pass time varied
     by 7% from seed to seed, by where [dealII] fell.
   - attack-catalog: the seed orders the victim programs and the
     cross-validation replays, but the stages keep the order
     [rstic attacks], crossval and the incident report run in. With the
     cache cold, the first use of a program pays its compile, and a free
     shuffle would move that cost between items from seed to seed. *)
let items ~seed = function
  | Static_spec ->
      let r = rng ~seed "order" in
      let big, small =
        List.partition
          (fun (w : W.Workload.t) -> List.mem w.name largest)
          W.Spec2006.all
      in
      List.map
        (fun (w : W.Workload.t) ->
          Static { name = w.name; text = static_text ~seed w })
        (shuffle r small @ shuffle r big)
  | Simulate_suites ->
      let r = rng ~seed "order" in
      let big, small =
        List.partition (fun (w : W.Workload.t) -> List.mem w.name heavy) (kernels ())
      in
      List.map (fun w -> Kernel w) (shuffle r big @ shuffle r small)
  | Attack_catalog ->
      let r = rng ~seed "order" in
      let scenarios = shuffle r (scenario_groups ()) in
      let gen =
        List.concat_map
          (fun (prog, source) ->
            List.map
              (fun mech -> Xval_generated { prog; source; mech })
              A.Crossval.mechanisms)
          (A.Crossval.default_programs ())
      in
      List.concat scenarios @ shuffle r (Xval_catalog :: gen) @ [ Coverage ]

(* Items of the extra latency passes. A static-spec pass takes 25-50 s,
   and its sixteen small kernels about one second of it, so their
   latencies would sample the host's speed over that one second; on the
   host the benchmark was tuned on, that alone moved the median by a
   quarter from run to run. Short passes over those kernels, spread
   over a quarter of the run, give the latency percentiles samples over
   more time. The first is a warm-up: it pays the process's cold start
   (first-touch heap growth), 1.2 to 1.6 times the warm latency. The
   other workloads run many passes and need neither. *)
let latency_items workload items =
  match workload with
  | Static_spec ->
      List.filter
        (function
          | Static { name; _ } -> not (List.mem name largest)
          | _ -> false)
        items
  | Simulate_suites | Attack_catalog -> []

(* Everything an item hands the system, as bytes: the determinism test
   compares this across runs of one seed. *)
let describe = function
  | Static { name; text } -> name ^ "\n" ^ text
  | Kernel w -> w.name ^ "\n" ^ w.source
  | Scenario { sc; mech; _ } ->
      sc.A.Scenario.id ^ "\n" ^ RT.mechanism_to_string mech ^ "\n"
      ^ sc.A.Scenario.program
  | Xval_generated { prog; source; mech } ->
      prog ^ "\n" ^ RT.mechanism_to_string mech ^ "\n" ^ source
  | (Xval_catalog | Coverage) as i -> item_name i
