(* Tests for the experiment engine: the domain-pool scheduler (every
   task claimed exactly once, results in input order, for any job
   count), the content-keyed artifact cache (a hit returns exactly what
   a fresh computation would), and the headline determinism guarantee —
   figure and table renderings are byte-identical whether the suite runs
   on one domain or four. *)

module Scheduler = Rsti_engine.Scheduler
module Cache = Rsti_engine.Cache
module Pipeline = Rsti_engine.Pipeline
module Run = Rsti_workloads.Run
module Workload = Rsti_workloads.Workload
module Perf = Rsti_report.Perf
module Figures = Rsti_report.Figures
module RT = Rsti_sti.Rsti_type

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ----------------------------- scheduler ---------------------------- *)

(* Every task runs exactly once and the result order is the input order,
   for any job count — the invariant all merge determinism rests on. *)
let prop_scheduler_exactly_once =
  QCheck.Test.make ~name:"scheduler: each task exactly once, in order" ~count:30
    QCheck.(pair (int_range 0 40) (int_range 1 4))
    (fun (n, jobs) ->
      let xs = List.init n (fun i -> i) in
      let runs = Array.make (max n 1) 0 in
      let lock = Mutex.create () in
      let ys =
        Scheduler.map ~jobs
          (fun i ->
            Mutex.lock lock;
            runs.(i) <- runs.(i) + 1;
            Mutex.unlock lock;
            i * i)
          xs
      in
      ys = List.map (fun i -> i * i) xs
      && List.for_all (fun i -> runs.(i) = 1) xs)

(* The always-on scheduler counters see every task claimed exactly once
   under a parallel fan-out: the task count grows by exactly n, and the
   own-claim/steal split partitions it. *)
let test_scheduler_stats_exactly_once () =
  let before = Scheduler.stats () in
  let n = 37 in
  ignore (Scheduler.map ~jobs:4 (fun i -> i * 2) (List.init n (fun i -> i)));
  let after = Scheduler.stats () in
  checki "one fan-out recorded" 1 (after.Scheduler.fanouts - before.Scheduler.fanouts);
  checki "every task counted" n (after.Scheduler.tasks - before.Scheduler.tasks);
  checki "own claims + steals = tasks" n
    (after.Scheduler.own_claims + after.Scheduler.steals
    - (before.Scheduler.own_claims + before.Scheduler.steals))

let test_scheduler_exception_propagates () =
  checkb "task exception re-raised" true
    (try
       ignore
         (Scheduler.map ~jobs:3
            (fun i -> if i = 5 then failwith "boom" else i)
            (List.init 10 (fun i -> i)));
       false
     with Failure msg -> msg = "boom")

let test_scheduler_nested_map_serializes () =
  (* fan-out inside a pool worker must not spawn domains over domains,
     and must still return correct results *)
  let grid =
    Scheduler.map ~jobs:4
      (fun i -> Scheduler.map ~jobs:4 (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  checkb "nested results correct" true
    (grid = List.init 4 (fun i -> List.init 3 (fun j -> (10 * i) + j)))

let test_jobs_resolution_override () =
  Scheduler.set_default_jobs 3;
  checki "override wins" 3 (Scheduler.default_jobs ());
  Scheduler.set_default_jobs 0;
  checki "override clamped to 1" 1 (Scheduler.default_jobs ());
  Scheduler.clear_default_jobs ();
  checkb "cleared falls back to a positive count" true
    (Scheduler.default_jobs () >= 1)

(* ------------------------------- cache ------------------------------ *)

module PT = Rsti_dataflow.Points_to
module Elide = Rsti_staticcheck.Elide

let bytes v = Marshal.to_string v [ Marshal.No_sharing ]
let cache_mechs = [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ]

let elisions =
  [ Elide.Off; Elide.Syntactic; Elide.With_points_to; Elide.With_context 2 ]

(* Every slot an elision verdict can be asked about: the named pointer
   variables plus every member of each mechanism's class partition. *)
let all_slots a =
  let anal = Pipeline.analysis a and m = Pipeline.analyzed_ir a in
  List.sort_uniq compare
    (List.map
       (fun (i : Rsti_sti.Analysis.slot_info) -> i.slot)
       (Rsti_sti.Analysis.pointer_vars anal)
    @ List.concat_map
        (fun mech ->
          List.concat_map
            (fun (cl : Rsti_dataflow.Equiv.cls) ->
              List.map
                (fun (mb : Rsti_dataflow.Equiv.member) ->
                  mb.mb_info.Rsti_sti.Analysis.slot)
                cl.c_members)
            (Rsti_dataflow.Equiv.analyze anal m mech).r_classes)
        cache_mechs)

(* The artifacts of each memoized stage, rendered to bytes so a cold
   computation, the one that fills the cache and the one served from it
   compare field for field. Each group runs on a cleared cache:
   [Points_to.confinement] interns struct-field cells into the solution
   it is given, so a cached solution's object table grows once a
   confinement consumer (elision, attack surface) has run on it — a
   known defect of the points-to layer that the elide-precision table's
   object counts still depend on. *)
let stage_groups :
    (string
    * (Pipeline.config -> Pipeline.compiled -> Pipeline.analyzed ->
      (string * string) list))
    list =
  [
    ( "points_to",
      fun config c _ ->
        List.map
          (fun mode ->
            let pt = Pipeline.points_to ~config ~mode c in
            ( PT.mode_to_string mode,
              bytes
                ( PT.stats pt,
                  List.map (fun o -> (o, PT.cell_contents pt o)) (PT.objects pt)
                ) ))
          [ PT.Insensitive; PT.Cloning 2 ] );
    ( "scope_escape",
      fun config c _ ->
        List.map
          (fun mode ->
            let sc = Pipeline.scope_escape ~config ~mode c in
            ( PT.mode_to_string mode,
              bytes
                ( Rsti_dataflow.Scope_escape.escapes sc,
                  Rsti_dataflow.Scope_escape.stale_derefs sc,
                  Rsti_dataflow.Scope_escape.stats sc ) ))
          [ PT.Insensitive; PT.Cloning 2 ] );
    ( "elide_pred",
      fun config _ a ->
        let slots = all_slots a in
        List.map
          (fun mode ->
            ( Elide.mode_to_string mode,
              bytes (List.map (Pipeline.elide_pred ~config ~mode a) slots) ))
          elisions );
    ( "attack_surface",
      fun config _ a ->
        List.concat_map
          (fun mech ->
            List.map
              (fun mode ->
                ( Printf.sprintf "%s %s"
                    (RT.mechanism_to_string mech)
                    (match mode with
                    | None -> "oracle"
                    | Some m -> PT.mode_to_string m),
                  bytes (Pipeline.attack_surface ~config ?mode mech a) ))
              [ None; Some (PT.Cloning 2) ])
          cache_mechs );
    ( "instrument+validation",
      fun config _ a ->
        List.concat_map
          (fun elision ->
            let config = { config with Pipeline.elision } in
            List.concat_map
              (fun mech ->
                let i = Pipeline.instrument ~config mech a in
                let r = Pipeline.result i in
                let label =
                  Printf.sprintf "%s %s"
                    (RT.mechanism_to_string mech)
                    (Elide.mode_to_string elision)
                in
                [
                  ( "instrument " ^ label,
                    bytes
                      ( Rsti_ir.Ir.modul_to_string r.Rsti_rsti.Instrument.modul,
                        r.Rsti_rsti.Instrument.pp_table,
                        r.Rsti_rsti.Instrument.counts,
                        r.Rsti_rsti.Instrument.per_func ) );
                  ("validation " ^ label, bytes (Pipeline.validation ~config i));
                ])
              cache_mechs)
          elisions );
  ]

(* A cached artifact must be indistinguishable from a fresh computation
   at every memoized stage: the same bytes whether the pipeline runs
   cold, fills the cache, or is served from it — for two kernels, all
   four mechanisms and every elision precision. *)
let test_cache_hit_identical () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (group, artifacts) ->
          let pass cache =
            let config = { Pipeline.default with Pipeline.cache } in
            let c =
              Pipeline.compile ~config
                (Pipeline.source ~file:(w.Workload.name ^ ".c") w.Workload.source)
            in
            artifacts config c (Pipeline.analyze ~config c)
          in
          let name what = Printf.sprintf "%s %s: %s" w.Workload.name group what in
          Cache.clear ();
          let cold = pass false in
          let filling = pass true in
          let before = Cache.stats () in
          let served = pass true in
          let after = Cache.stats () in
          checkb (name "served pass hits") true
            (after.Cache.hits > before.Cache.hits);
          checki (name "no miss on the served pass") before.Cache.misses
            after.Cache.misses;
          List.iter2
            (fun (label, c) ((_, f), (_, s)) ->
              checkb (name ("cold = filling " ^ label)) true (c = f);
              checkb (name ("filling = served " ^ label)) true (f = s))
            cold
            (List.combine filling served))
        stage_groups)
    [ List.hd Rsti_workloads.Nbench.all; List.hd Rsti_workloads.Spec2006.all ]

(* Four domains miss the same key at once: the compute waits until all
   four are inside it, so every lookup has missed before any install.
   The first install wins; the three losers count as hits and
   duplicated, and every caller gets the winner's value. *)
let test_cache_racing_miss () =
  Cache.clear ();
  let n = 4 in
  let entered = Atomic.make 0 in
  let compute i () =
    Atomic.incr entered;
    while Atomic.get entered < n do
      Domain.cpu_relax ()
    done;
    String.make 1 (Char.chr (Char.code 'a' + i))
  in
  let results =
    List.map Domain.join
      (List.init n (fun i ->
           Domain.spawn (fun () -> Cache.memo Cache.incident "race" (compute i))))
  in
  let s = List.assoc "incident" (Cache.stage_stats ()) in
  checki "one miss" 1 s.Cache.misses;
  checki "three hits" (n - 1) s.Cache.hits;
  checki "three duplicated" (n - 1) s.Cache.duplicated;
  let winner = List.hd results in
  checkb "every caller gets the winner" true
    (List.for_all (fun r -> r == winner) results)

(* Run keys omit the instrumentation prices: a hit under a different
   [pac] cost is re-priced from the outcome's counters instead of
   re-simulated. The re-priced cycle totals must equal what a fresh
   simulation at that cost produces — for instrumented runs, baselines,
   and the shadow-MAC backend alike. *)
let test_run_reprice_matches_simulation () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Spec2006.all in
  let src = Pipeline.source ~file:"reprice.c" w.Workload.source in
  let a = Pipeline.analyze (Pipeline.compile src) in
  let i = Pipeline.instrument RT.Stwc a in
  let config pac =
    { Pipeline.default with
      Pipeline.costs = Rsti_machine.Cost.(with_pac default pac) }
  in
  let uncached pac = { (config pac) with Pipeline.cache = false } in
  (* prime the cache at the default cost, then sweep *)
  ignore (Pipeline.run ~config:(config 7) i);
  ignore (Pipeline.run_baseline ~config:(config 7) (Pipeline.compiled_of_analyzed a));
  List.iter
    (fun pac ->
      let cached = Pipeline.run ~config:(config pac) i in
      let fresh = Pipeline.run ~config:(uncached pac) i in
      checki
        (Printf.sprintf "instrumented cycles at pac=%d" pac)
        fresh.Rsti_machine.Interp.cycles cached.Rsti_machine.Interp.cycles;
      let cached_b =
        Pipeline.run_baseline ~config:(config pac) (Pipeline.compiled_of_analyzed a)
      in
      let fresh_b =
        Pipeline.run_baseline ~config:(uncached pac) (Pipeline.compiled_of_analyzed a)
      in
      checki
        (Printf.sprintf "baseline cycles at pac=%d" pac)
        fresh_b.Rsti_machine.Interp.cycles cached_b.Rsti_machine.Interp.cycles;
      let cached_s = Pipeline.run ~config:(config pac) ~backend:`Shadow_mac i in
      let fresh_s = Pipeline.run ~config:(uncached pac) ~backend:`Shadow_mac i in
      checki
        (Printf.sprintf "shadow-MAC cycles at pac=%d" pac)
        fresh_s.Rsti_machine.Interp.cycles cached_s.Rsti_machine.Interp.cycles)
    [ 3; 5; 9; 12 ]

(* With [config.cache = false] every stage computes directly: a whole
   chain leaves every per-stage counter at zero. *)
let test_cache_disabled_bypasses_table () =
  Cache.clear ();
  let config = { Pipeline.default with Pipeline.cache = false } in
  let w = List.hd Rsti_workloads.Nbench.all in
  let c =
    Pipeline.compile ~config (Pipeline.source ~file:"off.c" w.Workload.source)
  in
  let a = Pipeline.analyze ~config c in
  let i =
    Pipeline.instrument
      ~config:{ config with Pipeline.elision = Rsti_staticcheck.Elide.With_context 2 }
      RT.Stwc a
  in
  ignore (Pipeline.validation ~config i);
  ignore
    (Pipeline.attack_surface ~config
       ~mode:(Rsti_dataflow.Points_to.Cloning 2) RT.Stwc a);
  ignore (Pipeline.run ~config i);
  ignore (Pipeline.run_baseline ~config c);
  List.iter
    (fun (stage, s) ->
      checki (stage ^ " hits") 0 s.Cache.hits;
      checki (stage ^ " misses") 0 s.Cache.misses;
      checki (stage ^ " duplicated") 0 s.Cache.duplicated)
    (Cache.stage_stats ())

(* --------------------- serial vs parallel output -------------------- *)

let take n l = List.filteri (fun i _ -> i < n) l

(* A reduced Perf.t (two kernels per suite) keeps the double measurement
   affordable while exercising the same fan-out/merge path as the full
   figure reproduction. *)
let reduced_perf ~jobs () =
  let config = { Run.default_config with Run.jobs = Some jobs } in
  let suite ws = Run.measure_suite ~config (take 2 ws) RT.all_mechanisms in
  {
    Perf.spec2006 = suite Rsti_workloads.Spec2006.all;
    spec2017 = suite Rsti_workloads.Spec2017.all;
    nbench = suite Rsti_workloads.Nbench.all;
    pytorch = suite Rsti_workloads.Pytorch.all;
    nginx = suite Rsti_workloads.Nginx.all;
  }

let test_fig9_fig10_identical_across_jobs () =
  let serial = reduced_perf ~jobs:1 () in
  (* Drop the artifacts the serial pass populated, so the parallel pass
     recomputes everything rather than trivially serving cache hits. *)
  Cache.clear ();
  let four = reduced_perf ~jobs:4 () in
  checks "fig9 byte-identical" (Figures.fig9 serial) (Figures.fig9 four);
  checks "fig10 byte-identical" (Figures.fig10 serial) (Figures.fig10 four)

let test_table3_identical_across_jobs () =
  Scheduler.set_default_jobs 1;
  let serial = Figures.table3 () in
  Cache.clear ();
  Scheduler.set_default_jobs 4;
  let four = Figures.table3 () in
  Scheduler.clear_default_jobs ();
  checks "table3 byte-identical" serial four

let tests =
  [
    QCheck_alcotest.to_alcotest prop_scheduler_exactly_once;
    Alcotest.test_case "scheduler: stats count each task once" `Quick
      test_scheduler_stats_exactly_once;
    Alcotest.test_case "scheduler: exceptions propagate" `Quick
      test_scheduler_exception_propagates;
    Alcotest.test_case "scheduler: nested fan-out" `Quick
      test_scheduler_nested_map_serializes;
    Alcotest.test_case "scheduler: jobs resolution" `Quick
      test_jobs_resolution_override;
    Alcotest.test_case "cache: hit = fresh computation" `Quick
      test_cache_hit_identical;
    Alcotest.test_case "cache: racing misses count one miss" `Quick
      test_cache_racing_miss;
    Alcotest.test_case "cache: run re-pricing = fresh simulation" `Quick
      test_run_reprice_matches_simulation;
    Alcotest.test_case "cache: disabled bypasses table" `Quick
      test_cache_disabled_bypasses_table;
    Alcotest.test_case "determinism: fig9/fig10 jobs=1 vs 4" `Slow
      test_fig9_fig10_identical_across_jobs;
    Alcotest.test_case "determinism: table3 jobs=1 vs 4" `Quick
      test_table3_identical_across_jobs;
  ]
