(* perfbench: the repository benchmark.

     perfbench.exe --workload static-spec|simulate-suites|attack-catalog
                   --seed N --seconds S --trace 0|1
                   [--jobs J] [--passes P] [--setup-only]

   One pass issues every item of the workload once, with the artifact
   cache cold (every [rstic] process starts with an empty cache). The run
   repeats passes until [--seconds] have gone by, or exactly [--passes]
   times. With [--trace 0] it prints the end-to-end metrics; with
   [--trace 1] it runs untraced passes for half the time and traced
   passes for the other half, then the static scaling ladder and the PA
   per-op probe, and prints the per-layer metrics. The last line of
   standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. *)

module Cache = Rsti_engine.Cache
module Scheduler = Rsti_engine.Scheduler
module Observe = Rsti_observe.Observe
module Splitmix = Rsti_util.Splitmix

let t_main = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : Inputs.workload;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;
  passes : int option;
  setup_only : bool;
}

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: perfbench.exe --workload static-spec|simulate-suites|attack-catalog \
     --seed N --seconds S --trace 0|1 [--jobs J] [--passes P] [--setup-only]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | "--setup-only" :: rest ->
        Hashtbl.replace tbl "setup-only" "1";
        go rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub flag 2 (String.length flag - 2)) v;
        go rest
    | [] -> ()
    | x :: _ -> usage ("unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = Hashtbl.find_opt tbl k in
  let int k d =
    match get k with
    | None -> d
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> usage (Printf.sprintf "--%s expects an integer" k))
  in
  let workload =
    match Option.bind (get "workload") (fun w -> List.assoc_opt w Inputs.workloads) with
    | Some w -> w
    | None -> usage "--workload is missing or unknown"
  in
  {
    workload;
    seed = int "seed" 1;
    seconds = float (int "seconds" 10);
    trace = int "trace" 0 = 1;
    jobs = max 1 (int "jobs" (Inputs.default_jobs workload));
    passes = Option.map (fun _ -> max 1 (int "passes" 1)) (get "passes");
    setup_only = get "setup-only" <> None;
  }

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it:
   (value, percentile, samples beyond). Below eleven samples, the
   maximum. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then (0., 100., 0)
  else if n < 11 then (a.(n - 1), 100., 0)
  else (a.(n - 11), 100. *. float (n - 10) /. float n, 10)

let ratio a b = if b = 0. then 0. else a /. b

(* Least-squares slope of log t over log size. *)
let loglog_slope pts =
  let pts = List.map (fun (x, y) -> (log x, log (Float.max y 1e-9))) pts in
  let n = float (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts
  and sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let mx = sx /. n and my = sy /. n in
  let num = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. pts
  and den = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.)) 0. pts in
  ratio num den

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall : float;
  lats : float list;  (** per-item latency, seconds, issue order *)
  live_words : int;
      (** live major heap after a full collection at the end of the
          pass, when the cache holds every artifact of the pass *)
  base_words : int;
      (** live major heap after a full collection at the start of the
          pass, with the cache empty *)
  failed : int;  (** items that failed a correctness gate *)
  failures : (string * string) list;  (** (item, error) *)
  digest : string;  (** of the sorted exact-count lines *)
  sim_instrs : int;
  ir_instrs : int;
  tokens : int;
  results : (Inputs.item * float * Items.result) list;
      (** kept for the first pass of each kind only, so the benchmark's
          own heap does not grow with the number of passes *)
  cache : (string * Cache.stats) list;
  sched : Scheduler.stats;
  spans : Span.t list;
  equiv_hidden : float;
      (** [pipeline.attack_surface] span time inside calls the benchmark
          cannot take apart (traced attack-catalog passes only) *)
}

let run_item ~traced (idx, item) =
  let t0 = Span.now () in
  let res =
    try
      Span.with_ (Span.root idx) "bench.item" (fun ctx ->
          Items.run ~traced ctx item)
    with e ->
      {
        Items.counts = [];
        errors = [ "exception: " ^ Printexc.to_string e ];
        sim_instrs = 0;
        tokens = 0;
      }
  in
  let latency = Span.now () -. t0 in
  (item, latency, res)

let count_lines results =
  List.concat_map
    (fun (item, _, (r : Items.result)) ->
      let name = Inputs.item_name item in
      List.map (fun (k, v) -> Printf.sprintf "%s %s %d" name k v) r.counts)
    results
  |> sorted

(* Sum of the counts named [k] or [k.*] over a pass. *)
let count results k =
  let pre = k ^ "." in
  let n = String.length pre in
  List.fold_left
    (fun acc (_, _, (r : Items.result)) ->
      List.fold_left
        (fun acc (key, v) ->
          if key = k || (String.length key > n && String.sub key 0 n = pre) then
            acc + v
          else acc)
        acc r.counts)
    0 results

let run_pass ~traced ~jobs workload items ~keep =
  Cache.clear ();
  Gc.full_major ();
  let base_words = (Gc.stat ()).live_words in
  Observe.reset ();
  Span.on := traced;
  let observe = traced && workload = Inputs.Attack_catalog in
  Observe.set_enabled observe;
  let t0 = Span.now () in
  let results =
    Scheduler.map ~jobs (run_item ~traced)
      (List.mapi (fun i it -> (i + 1, it)) items)
  in
  let wall = Span.now () -. t0 in
  Span.on := false;
  Observe.set_enabled false;
  let equiv_hidden =
    if not observe then 0.
    else
      List.fold_left
        (fun acc (r : Observe.Span.record) ->
          if r.name = "pipeline.attack_surface" then
            acc +. (Int64.to_float (Int64.sub r.t_end_ns r.t_start_ns) *. 1e-9)
          else acc)
        0. (Observe.Span.records ())
  in
  Observe.Span.reset ();
  Gc.full_major ();
  let live_words = (Gc.stat ()).live_words in
  Calib.probe 2;
  let sum f = List.fold_left (fun n (_, _, r) -> n + f r) 0 results in
  {
    wall;
    lats = List.map (fun (_, l, _) -> l) results;
    live_words;
    base_words;
    failed =
      List.length
        (List.filter (fun (_, _, (r : Items.result)) -> r.errors <> []) results);
    failures =
      List.concat_map
        (fun (item, _, (r : Items.result)) ->
          List.map (fun e -> (Inputs.item_name item, e)) r.errors)
        results;
    digest =
      Digest.to_hex (Digest.string (String.concat "\n" (count_lines results)));
    sim_instrs = sum (fun r -> r.Items.sim_instrs);
    ir_instrs = count results "ir.instrs";
    tokens = sum (fun r -> r.Items.tokens);
    results = (if keep then results else []);
    cache = Cache.stage_stats ();
    sched = Scheduler.stats ();
    spans = Span.take ();
    equiv_hidden;
  }

let repeat_passes ~budget ~passes f =
  let t0 = Span.now () in
  let rec go acc =
    let acc = f ~keep:(acc = []) :: acc in
    let n = List.length acc in
    let more =
      match passes with
      | Some p -> n < p
      | None -> Span.now () -. t0 < budget
    in
    if more then go acc else List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Traced-run probes                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-op cost of the PA substrate: QARMA block encryptions, and
   sign + auth pairs whose modifiers are all distinct, through two
   contexts with the same keys, so neither call hits the PAC memo. *)
let pa_probe ~seed =
  let module Pac = Rsti_pa.Pac in
  let n = 2_000 and per_ctx = 500 in
  let key = Rsti_pa.Qarma.key_of_rng (Splitmix.create seed) in
  let qarma () =
    let acc = ref 0L in
    let t0 = Span.now () in
    for i = 1 to n do
      acc :=
        Rsti_pa.Qarma.encrypt ~key ~tweak:(Int64.of_int i)
          (Int64.add !acc (Int64.of_int i))
    done;
    ignore (Sys.opaque_identity !acc);
    (Span.now () -. t0) /. float n *. 1e9
  in
  let bad = ref 0 in
  let sign_auth () =
    let t = ref 0. in
    for b = 0 to (n / per_ctx) - 1 do
      let signer = Pac.make ~seed () and checker = Pac.make ~seed () in
      let t0 = Span.now () in
      for j = 0 to per_ctx - 1 do
        let i = (b * per_ctx) + j in
        let p = Int64.of_int (0x100000 + (i * 16)) in
        let modifier = Int64.of_int (i + 1) in
        let s = Pac.sign signer ~key:Rsti_pa.Key.DA ~modifier p in
        match Pac.auth checker ~key:Rsti_pa.Key.DA ~modifier s with
        | Ok q when q = p -> ()
        | _ -> incr bad
      done;
      t := !t +. (Span.now () -. t0)
    done;
    !t /. float n *. 1e9
  in
  let reps f = median (List.init 5 (fun _ -> f ())) in
  let q = reps qarma in
  let sa = reps sign_auth in
  (q, sa, !bad)

let ladder_programs = Inputs.largest

(* The spans of [Items.static_traced], one growth exponent each. *)
let ladder_layers =
  [
    "minic.lex"; "minic.parse"; "minic.typecheck"; "ir.lower"; "ir.verify";
    "sti.analyze"; "sti.stats"; "sti.pp_census";
    "dataflow.points_to.insensitive"; "dataflow.points_to.cloning2";
    "dataflow.scope_escape"; "staticcheck.elide"; "dataflow.equiv";
    "staticcheck.lint"; "rsti.instrument.stwc"; "rsti.instrument.stc";
    "rsti.instrument.stl"; "rsti.instrument.parts"; "dataflow.validate";
  ]
let ladder_scales = [ 0.25; 0.5; 1.0 ]

(* The static layers on the largest generated populations at 1/4, 1/2
   and full size: (program, scale, IR instructions, ok, spans). Each
   runs alone on a fresh heap, so all three sizes see the same GC
   context; taken inside a pass, the full-size point would carry the
   other items' live heap and bend every slope upward. *)
let ladder ~seed =
  let id = ref 0 in
  List.concat_map
    (fun name ->
      let w =
        List.find
          (fun (w : Rsti_workloads.Workload.t) -> w.name = name)
          Rsti_workloads.Spec2006.all
      in
      List.map
        (fun scale ->
          let text = Inputs.static_text ~scale ~seed w in
          decr id;
          Gc.full_major ();
          Span.on := true;
          let r = Items.static_traced (Span.root !id) ~name text in
          Span.on := false;
          let size = List.assoc "ir.instrs" r.counts in
          List.iter
            (Printf.printf "FAILED ladder %s x%g: %s\n" name scale)
            r.errors;
          (name, scale, size, r.errors = [], Span.take ()))
        ladder_scales)
    ladder_programs

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let print_metrics title metrics =
  Printf.printf "%s:\n" title;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-48s %14.6g %s\n" name v unit)
    metrics

let print_failures passes =
  List.iter
    (fun p ->
      List.iter (fun (item, e) -> Printf.printf "FAILED %s: %s\n" item e) p.failures)
    passes

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

let () =
  let a = parse_args () in
  let wname = Inputs.workload_name a.workload in
  let process_init =
    match Option.bind (Sys.getenv_opt "PERFBENCH_SPAWN_T") float_of_string_opt with
    | Some t -> Float.max 0. (t_main -. t)
    | None -> 0.
  in
  (* Set-up: generate the seeded inputs, a few times so that its median
     is steady. The process start up to [main] (runtime and library
     initialisation, the kernel tables) is measured by the launcher's
     clock, once per process; the launcher also starts a few set-up-only
     processes and hands their figures to this one. *)
  let setups, items =
    let times = ref [] and items = ref [] in
    for _ = 1 to setup_reps do
      let t0 = Span.now () in
      items := Inputs.items ~seed:a.seed a.workload;
      times := (Span.now () -. t0) :: !times
    done;
    (!times, !items)
  in
  let own_setup = process_init +. median setups in
  (* The host's speed, before the first item and after every pass. *)
  Calib.probe 64;
  if a.setup_only then begin
    Printf.printf "setup_s %.17g\n" (own_setup *. Calib.scale ());
    Printf.printf "inputs %s\n"
      (Digest.to_hex
         (Digest.string (String.concat "\x00" (List.map Inputs.describe items))));
    exit 0
  end;
  let setup_samples =
    (own_setup *. Calib.scale ())
    :: (match Sys.getenv_opt "PERFBENCH_SETUP_SAMPLES" with
       | None -> []
       | Some l -> List.filter_map float_of_string_opt (String.split_on_char ',' l))
  in
  let setup_s = median setup_samples in
  Printf.printf "perfbench workload=%s seed=%d jobs=%d trace=%d seconds=%g\n" wname
    a.seed a.jobs (Bool.to_int a.trace) a.seconds;
  Printf.printf
    "setup: process_init=%.4fs inputs median=%.4fs (%d reps) items=%d; \
     setup_s is the median of %d processes\n"
    process_init (median setups) setup_reps (List.length items)
    (List.length setup_samples);
  let pass traced ~keep = run_pass ~traced ~jobs:a.jobs a.workload items ~keep in
  let lat_passes =
    match Inputs.latency_items a.workload items with
    | [] -> []
    | small ->
        let small_pass ~keep =
          run_pass ~traced:false ~jobs:a.jobs a.workload small ~keep
        in
        let w = small_pass ~keep:false in
        Printf.printf "warm-up: %d items, %.4fs, not measured\n"
          (List.length small) w.wall;
        if a.trace then []
        else repeat_passes ~budget:(a.seconds /. 4.) ~passes:a.passes small_pass
  in
  let budget = if a.trace then a.seconds /. 2. else a.seconds in
  let plain = repeat_passes ~budget ~passes:a.passes (pass false) in
  let traced =
    if a.trace then repeat_passes ~budget ~passes:a.passes (pass true) else []
  in
  Calib.probe 64;
  let first = List.hd plain in
  (* Exact counts, per item and mechanism, and their digest. The traced
     form of an item sees the stages some measured items keep to
     themselves, so it may count more; where both count, they agree. *)
  let lines = count_lines first.results in
  List.iter (fun l -> print_endline ("count " ^ l)) lines;
  List.iter
    (fun (item, l, _) ->
      Printf.printf "latency %s %.3f ms\n" (Inputs.item_name item) (l *. 1e3))
    first.results;
  let d = first.digest in
  let same ps = List.for_all (fun p -> p.digest = (List.hd ps).digest) ps in
  let forms_agree =
    match traced with
    | [] -> true
    | t :: _ ->
        let tl = Hashtbl.create 4096 in
        List.iter (fun l -> Hashtbl.replace tl l ()) (count_lines t.results);
        List.for_all (Hashtbl.mem tl) lines
  in
  let digests_agree =
    same plain && (traced = [] || same traced)
    && (lat_passes = [] || same lat_passes)
    && forms_agree
  in
  Printf.printf "digest %s (%d untraced passes: %s)\n" d (List.length plain)
    (if same plain then "identical in every pass" else "DIFFERS between passes");
  if traced <> [] then
    Printf.printf "traced digest %s (%d traced passes: %s; %s)\n"
      (List.hd traced).digest (List.length traced)
      (if same traced then "identical in every pass" else "DIFFERS between passes")
      (if forms_agree then "every untraced count equal in the traced form"
       else "traced and untraced counts DIFFER");
  if lat_passes <> [] then
    Printf.printf "latency passes: %d of %d items, median wall %.4fs\n"
      (List.length lat_passes)
      (List.length (List.hd lat_passes).lats)
      (median (List.map (fun p -> p.wall) lat_passes));
  List.iteri
    (fun i p ->
      Printf.printf "pass %d%s: wall=%.4fs items=%d failed=%d heap=%d..%d words\n"
        (i + 1)
        (if i >= List.length plain then " (traced)" else "")
        p.wall (List.length p.lats) p.failed p.base_words p.live_words)
    (plain @ traced);
  let all = lat_passes @ plain @ traced in
  print_failures all;
  let attempted = List.fold_left (fun n p -> n + List.length p.lats) 0 all in
  let failed = List.fold_left (fun n p -> n + p.failed) 0 all in
  let walls ps = List.map (fun p -> p.wall) ps in
  (* Latency percentiles are taken within each pass, then their median
     over passes: pooled over hundreds of passes, the tail would be the
     slowest dozen samples of the run, i.e. its worst hiccups. *)
  let per_pass f =
    median
      (List.map
         (fun p -> f (List.map (fun l -> l *. 1e3) p.lats))
         (lat_passes @ plain))
  in
  let per_pass_rate f = median (List.map (fun p -> f p /. p.wall) plain) in
  let _, tail_p, tail_n = tail (List.hd plain).lats in
  let work p =
    float
      (if a.workload = Inputs.Static_spec then p.ir_instrs else p.sim_instrs)
  in
  (* Times and rates are reported at the nominal host speed (see
     [Calib]), counts, ratios and sizes as measured; [setup_s] is at the
     nominal speed already. *)
  let k = Calib.scale () in
  let at_nominal (name, v, unit) =
    match unit with
    | "s" | "ms" | "ns" -> (name, v *. k, unit)
    | "1/s" | "Minstr/s" -> (name, v /. k, unit)
    | _ -> (name, v, unit)
  in
  let raw =
    [
      ("wall_s", median (walls plain), "s");
      ("items_per_s", per_pass_rate (fun p -> float (List.length p.lats)), "1/s");
      ("latency_p50_ms", per_pass median, "ms");
      ("latency_tail_ms", per_pass (fun l -> let v, _, _ = tail l in v), "ms");
      ("minstr_per_s", per_pass_rate work /. 1e6, "Minstr/s");
    ]
  in
  let e2e =
    ("setup_s", setup_s, "s")
    :: List.map at_nominal raw
    @ [
      (* Less what the heap gained between the first pass and this one:
         the records of the passes before, kept by the benchmark, which
         a single [rstic] process would not hold. *)
      ( "peak_heap_mb",
        median
          (List.map
             (fun p ->
               float
                 ((p.live_words - (p.base_words - (List.hd plain).base_words))
                 * (Sys.word_size / 8))
               /. 1048576.)
             plain),
        "MB" );
    ]
  in
  print_metrics
    (Printf.sprintf "end-to-end (%s, untraced, times at the nominal host speed)" wname)
    e2e;
  let chunk, probes = Calib.median () in
  Printf.printf
    "  times at the nominal host speed: the reference chunk took %.4f ms \
     (median of %d), nominal %.4f ms, scale %.4f\n"
    (chunk *. 1e3) probes (Calib.nominal *. 1e3) k;
  print_metrics "  raw (host time)" raw;
  Printf.printf
    "  latency_tail_ms is p%.1f of the %d items of a pass (%d beyond), \
     median over %d passes\n"
    tail_p (List.length (List.hd plain).lats) tail_n
    (List.length lat_passes + List.length plain);
  Printf.printf "  minstr_per_s counts %s\n"
    (if a.workload = Inputs.Static_spec then
       "IR instructions through the static chain (the workload executes nothing)"
     else "simulated instructions, baseline plus instrumented");
  Printf.printf "  error_rate %.6g (%d failed of %d attempted)\n"
    (ratio (float failed) (float attempted))
    failed attempted;
  if not a.trace then
    print_result ~correct:(failed = 0 && digests_agree) ~attempted ~failed e2e
  else begin
    let spans = List.concat_map (fun p -> p.spans) traced in
    let nt = float (List.length traced) in
    (* Self-time table, per span name and per layer. Shares are of the
       summed item time, which is [jobs] times the wall time when every
       worker is busy. *)
    let item_time = Span.total_by_name spans "bench.item" in
    let tbl = Span.table spans in
    Printf.printf "self time per span (%s, %d traced passes, %.4fs of item time):\n"
      wname (List.length traced) item_time;
    Printf.printf "  %-36s %8s %12s %12s %7s\n" "span" "calls" "total_s" "self_s" "self%";
    List.iter
      (fun (name, n, tot, sf) ->
        Printf.printf "  %-36s %8d %12.6f %12.6f %6.2f%%\n" name n tot sf
          (100. *. ratio sf item_time))
      tbl;
    let layers = Hashtbl.create 16 in
    List.iter
      (fun (name, _, _, sf) ->
        let l = List.hd (String.split_on_char '.' name) in
        Hashtbl.replace layers l
          (sf +. Option.value ~default:0. (Hashtbl.find_opt layers l)))
      tbl;
    Printf.printf "self time per layer (%s):\n" wname;
    Hashtbl.fold (fun l s acc -> (l, s) :: acc) layers []
    |> List.sort (fun (_, x) (_, y) -> compare y x)
    |> List.iter (fun (l, s) ->
           Printf.printf "  %-12s %12.6f s %6.2f%%\n" l s (100. *. ratio s item_time));
    let overhead = median (walls traced) -. median (walls plain) in
    Printf.printf "tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %.4f s\n"
      (median (walls traced)) (median (walls plain)) overhead;
    let span_s name = Span.total_by_name spans name /. nt in
    let c = count (List.hd traced).results in
    let last = List.hd (List.rev plain) in
    let cache_get stage f =
      match List.assoc_opt stage last.cache with
      | Some s -> float (f s)
      | None -> 0.
    in
    let total f = List.fold_left (fun n (_, s) -> n + f s) 0 last.cache in
    let hits = total (fun (s : Cache.stats) -> s.hits)
    and misses = total (fun (s : Cache.stats) -> s.misses) in
    let busy p =
      ratio (List.fold_left ( +. ) 0. p.lats) (float a.jobs *. p.wall)
    in
    let traced_instrs = List.fold_left (fun n p -> n + p.sim_instrs) 0 traced
    and tokens = List.fold_left (fun n p -> n + p.tokens) 0 traced in
    let pa_q, pa_sa, pa_bad = pa_probe ~seed:(Inputs.pa_seed a.seed) in
    Printf.printf "pa probe: qarma %.2f ns/op, sign+auth %.2f ns/pair, %d bad auths\n"
      pa_q pa_sa pa_bad;
    let lad = ladder ~seed:a.seed in
    Printf.printf "scaling ladder (seconds per layer; size = IR instructions):\n";
    List.iter
      (fun (name, scale, size, _, _) ->
        Printf.printf "  %-10s x%-5g size=%d\n" name scale size)
      lad;
    let exponents =
      List.map
        (fun layer ->
          let slopes =
            List.map
              (fun prog ->
                loglog_slope
                  (List.filter_map
                     (fun (p, _, size, _, sp) ->
                       if p = prog then Some (float size, Span.total_by_name sp layer)
                       else None)
                     lad))
              ladder_programs
          in
          let e = median slopes in
          Printf.printf "  %-36s %s exponent=%.3f\n" layer
            (String.concat " "
               (List.map
                  (fun (p, sc, _, _, sp) ->
                    Printf.sprintf "%s@%g=%.4f" p sc (Span.total_by_name sp layer))
                  lad))
            e;
          (layer ^ ".growth_exponent", e, "ratio"))
        ladder_layers
    in
    let per_layer =
      [
        ("minic.lex_s", span_s "minic.lex", "s");
        ("minic.parse_s", span_s "minic.parse", "s");
        ("minic.typecheck_s", span_s "minic.typecheck", "s");
        ( "minic.tokens_per_s",
          ratio (float tokens) (Span.total_by_name spans "minic.lex"),
          "1/s" );
        ("ir.lower_s", span_s "ir.lower", "s");
        ("ir.verify_s", span_s "ir.verify", "s");
        ("ir.instrs", float (c "ir.instrs"), "count");
        ("sti.analyze_s", span_s "sti.analyze", "s");
        ("sti.stats_s", span_s "sti.stats", "s");
        ("sti.pp_census_s", span_s "sti.pp_census", "s");
        ("rsti.instrument_s.stwc", span_s "rsti.instrument.stwc", "s");
        ("rsti.instrument_s.stc", span_s "rsti.instrument.stc", "s");
        ("rsti.instrument_s.stl", span_s "rsti.instrument.stl", "s");
        ("rsti.instrument_s.parts", span_s "rsti.instrument.parts", "s");
        ("rsti.sites", float (c "rsti.sites"), "count");
        ("rsti.elided", float (c "rsti.elided"), "count");
        ("staticcheck.elide_s", span_s "staticcheck.elide", "s");
        ("staticcheck.lint_s", span_s "staticcheck.lint", "s");
        ("staticcheck.findings", float (c "staticcheck.findings"), "count");
        ( "staticcheck.safe_ratio",
          ratio (float (c "staticcheck.safe")) (float (c "staticcheck.candidates")),
          "ratio" );
        ( "dataflow.points_to_s.insensitive",
          span_s "dataflow.points_to.insensitive",
          "s" );
        ("dataflow.points_to_s.cloning2", span_s "dataflow.points_to.cloning2", "s");
        ( "dataflow.points_to.iterations",
          float (c "dataflow.points_to.iterations"),
          "count" );
        ("dataflow.scope_escape_s", span_s "dataflow.scope_escape", "s");
        ( "dataflow.equiv_s",
          (Span.total_by_name spans "dataflow.equiv"
          +. List.fold_left (fun s p -> s +. p.equiv_hidden) 0. traced)
          /. nt,
          "s" );
        ("dataflow.validate_s", span_s "dataflow.validate", "s");
        ("dataflow.equiv.classes", float (c "dataflow.equiv.classes"), "count");
        ("machine.create_s", span_s "machine.create", "s");
        ("machine.run_s", span_s "machine.run", "s");
        ( "machine.minstr_per_s",
          ratio (float traced_instrs) (Span.total_by_name spans "machine.run") /. 1e6,
          "Minstr/s" );
        ("machine.instrs", float (c "machine.instrs"), "count");
        ("machine.cycles", float (c "machine.cycles"), "count");
        ("machine.pac_ops", float (c "machine.pac_ops"), "count");
        ("machine.incidents", float (c "machine.incidents"), "count");
        ("pa.qarma_ns", pa_q, "ns");
        ("pa.sign_auth_ns", pa_sa, "ns");
        ("engine.cache.hit_ratio", ratio (float hits) (float (hits + misses)), "ratio");
      ]
      @ List.concat_map
          (fun stage ->
            [
              ( Printf.sprintf "engine.cache.%s.hits" stage,
                cache_get stage (fun s -> s.hits),
                "count" );
              ( Printf.sprintf "engine.cache.%s.misses" stage,
                cache_get stage (fun s -> s.misses),
                "count" );
            ])
          [ "compile"; "analysis"; "instrument"; "outcome"; "incident" ]
      @ [
          ("engine.scheduler.busy_ratio", median (List.map busy plain), "ratio");
          ("engine.scheduler.steals", float last.sched.steals, "count");
          ("attacks.scenario_s", span_s "attacks.scenario", "s");
          ("attacks.crossval_s", span_s "attacks.crossval", "s");
          ("attacks.detected", float (c "attacks.detected"), "count");
          ( "attacks.mapped_ratio",
            ratio
              (float (c "attacks.coverage.mapped"))
              (float (c "attacks.coverage.incidents")),
            "ratio" );
          ("trace.overhead_s", overhead, "s");
        ]
      @ exponents
      |> List.map at_nominal
    in
    print_metrics
      (Printf.sprintf "per-layer (%s, traced, times at the nominal host speed)" wname)
      per_layer;
    print_result
      ~correct:
        (failed = 0 && digests_agree && pa_bad = 0
        && List.for_all (fun (_, _, _, ok, _) -> ok) lad)
      ~attempted ~failed per_layer
  end
