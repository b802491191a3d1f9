(* One item of each workload, run through the public functions of the
   layers. Each item has two forms that do the same work:

   - the measured form goes through the engine's [Pipeline] (and so its
     artifact cache), the way [rstic] and the paper scripts do;
   - the traced form calls each layer's public function directly, in the
     order [Pipeline] does, with a span around every call, so the time
     of a layer hidden behind a pipeline stage can be told apart.

   The traced form returns every count the measured form returns, with
   the same value (an attack scenario's traced form adds the counts of
   the stages [Scenario.run] keeps to itself). Every correctness gate an
   item fails is returned as an error string. *)

open Inputs
module Pipeline = Rsti_engine.Pipeline
module Analysis = Rsti_sti.Analysis
module Lower = Rsti_ir.Lower
module Verify = Rsti_ir.Verify
module Points_to = Rsti_dataflow.Points_to
module Scope_escape = Rsti_dataflow.Scope_escape
module Equiv = Rsti_dataflow.Equiv
module Validate = Rsti_dataflow.Validate
module Elide = Rsti_staticcheck.Elide
module Lint = Rsti_staticcheck.Lint
module Instrument = Rsti_rsti.Instrument
module Interp = Rsti_machine.Interp

type result = {
  counts : (string * int) list;
      (** deterministic counts; a metric named [k] sums the keys [k] and
          [k.*] *)
  errors : string list;  (** failed correctness gates *)
  sim_instrs : int;  (** simulated instructions, baseline + instrumented *)
  tokens : int;  (** tokens lexed (traced form only) *)
}

let cloning2 = Points_to.Cloning 2
let static_mechs = Rsti_staticcheck.Attack_surface.mechanisms
let sim_mechs = RT.all_mechanisms
let mech_s = function
  | RT.Stwc -> "stwc"
  | RT.Stc -> "stc"
  | RT.Stl -> "stl"
  | RT.Parts -> "parts"
  | RT.Nop -> "nop"

let ir_instrs (m : Rsti_ir.Ir.modul) =
  List.fold_left
    (fun acc (f : Rsti_ir.Ir.func) ->
      Array.fold_left
        (fun acc (b : Rsti_ir.Ir.block) -> acc + List.length b.instrs)
        acc f.blocks)
    0 m.m_funcs

let verify_errors what m =
  List.map
    (fun (e : Verify.error) ->
      Printf.sprintf "Ir.Verify (%s) %s: %s" what e.fn e.msg)
    (Verify.verify m)

let validate_errors (r : Validate.report) =
  if Validate.ok r then []
  else [ "Validate rejects: " ^ Validate.report_to_string r ]

let site_counts mech (c : Instrument.static_counts) =
  let m = mech_s mech in
  [
    ("rsti.sites." ^ m, c.signs + c.auths + c.resigns + c.strips + c.pp_ops);
    ("rsti.signs." ^ m, c.signs);
    ("rsti.auths." ^ m, c.auths);
    ("rsti.resigns." ^ m, c.resigns);
    ("rsti.strips." ^ m, c.strips);
    ("rsti.pp_ops." ^ m, c.pp_ops);
    ("rsti.elided." ^ m, c.elided);
  ]

let pac_ops (c : Interp.counts) =
  c.pac_signs + c.pac_auths + c.pac_strips + c.pp_calls

let run_counts label (o : Interp.outcome) =
  [
    ("machine.instrs." ^ label, o.counts.instrs);
    ("machine.cycles." ^ label, o.cycles);
    ("machine.pac_ops." ^ label, pac_ops o.counts);
  ]

(* ------------------------------------------------------------------ *)
(* The frontend, one layer call at a time                               *)
(* ------------------------------------------------------------------ *)

let frontend ctx ~file text =
  let toks =
    Span.leaf ctx "minic.lex" (fun () -> Rsti_minic.Lexer.tokenize ~file text)
  in
  let ast =
    Span.leaf ctx "minic.parse" (fun () -> Rsti_minic.Parser.parse ~file text)
  in
  let tast =
    Span.leaf ctx "minic.typecheck" (fun () -> Rsti_minic.Typecheck.check ast)
  in
  let m = Span.leaf ctx "ir.lower" (fun () -> Lower.lower tast) in
  let errs =
    Span.leaf ctx "ir.verify" (fun () -> verify_errors "lowered" m)
  in
  (m, errs, List.length toks)

(* ------------------------------------------------------------------ *)
(* static-spec                                                          *)
(* ------------------------------------------------------------------ *)

type static_parts = {
  m : Rsti_ir.Ir.modul;
  stats : Analysis.stats;
  census : Analysis.pp_census;
  pt_i : Points_to.t;
  pt_c : Points_to.t;
  scope : Scope_escape.t;
  elide : Elide.summary;
  surface : Equiv.result list;
  findings : int;
  insts :
    (RT.mechanism * Instrument.result * Validate.report * string list) list;
      (** per mechanism: pass output, validator report, [Ir.Verify]
          errors on the instrumented module *)
}

let static_result ?(tokens = 0) errs p =
  let st = p.stats in
  let pts label pt =
    let s = Points_to.stats pt in
    [
      ("dataflow.points_to.iterations." ^ label, s.iterations);
      ("dataflow.points_to.nodes." ^ label, s.nodes);
      ("dataflow.points_to.objects." ^ label, s.objects);
      ("dataflow.points_to.clones." ^ label, s.clones);
    ]
  in
  let escapes, stale = Scope_escape.stats p.scope in
  let equiv (r : Equiv.result) =
    let m = mech_s r.r_mech and x = r.r_metrics in
    [
      ("dataflow.equiv.candidates." ^ m, x.m_candidates);
      ("dataflow.equiv.classes." ^ m, x.m_classes);
      ("dataflow.equiv.singletons." ^ m, x.m_singletons);
      ("dataflow.equiv.largest." ^ m, x.m_largest);
      ("dataflow.equiv.replay_edges." ^ m, x.m_replay_edges);
      ("dataflow.equiv.feasible_edges." ^ m, x.m_feasible_edges);
    ]
  in
  let inst (mech, (r : Instrument.result), (v : Validate.report), _) =
    site_counts mech r.counts
    @ [
        ("ir.instrumented_instrs." ^ mech_s mech, ir_instrs r.modul);
        ("dataflow.validate.signed_slots." ^ mech_s mech, v.signed_slots);
        ("dataflow.validate.checked_slots." ^ mech_s mech, v.checked_slots);
      ]
  in
  let errors =
    errs
    @ List.concat_map
        (fun (_, _, v, verrs) -> verrs @ validate_errors v)
        p.insts
  in
  {
    counts =
      ("ir.instrs", ir_instrs p.m)
      :: [
          ("sti.table3.nt", st.nt);
          ("sti.table3.rt_stwc", st.rt_stwc);
          ("sti.table3.rt_stc", st.rt_stc);
          ("sti.table3.nv", st.nv);
          ("sti.table3.largest_ecv_stwc", st.largest_ecv_stwc);
          ("sti.table3.largest_ecv_stc", st.largest_ecv_stc);
          ("sti.table3.largest_ect_stwc", st.largest_ect_stwc);
          ("sti.table3.largest_ect_stc", st.largest_ect_stc);
          ("sti.pp_census.sites", p.census.pp_total_sites);
          ("sti.pp_census.special", List.length p.census.pp_special);
          ("dataflow.scope_escape.escapes", escapes);
          ("dataflow.scope_escape.stale", stale);
          ("staticcheck.candidates", p.elide.candidates);
          ("staticcheck.safe", p.elide.safe);
          ("staticcheck.findings", p.findings);
        ]
      @ pts "insensitive" p.pt_i @ pts "cloning2" p.pt_c
      @ List.concat_map equiv p.surface
      @ List.concat_map inst p.insts;
    errors;
    sim_instrs = 0;
    tokens;
  }

(* The static chain in the order [rstic] runs it, through [Pipeline]. *)
let static_measured ~name text =
  let c = Pipeline.compile (Pipeline.source ~file:(name ^ ".c") text) in
  let m = Pipeline.ir c in
  let errs = verify_errors "lowered" m in
  let a = Pipeline.analyze c in
  let anal = Pipeline.analysis a in
  let stats = Analysis.stats anal in
  let census = Analysis.pp_census anal in
  let pt_i = Pipeline.points_to ~mode:Points_to.Insensitive c in
  let pt_c = Pipeline.points_to ~mode:cloning2 c in
  let scope = Pipeline.scope_escape ~mode:cloning2 c in
  let elide = Elide.summary (Elide.analyze ~points_to:pt_c ~scope anal m) in
  let surface =
    List.map (fun mech -> Pipeline.attack_surface ~mode:cloning2 mech a)
      static_mechs
  in
  let findings =
    List.length (Lint.run ~scope ~attack_surface:surface anal m)
  in
  let insts =
    List.map
      (fun mech ->
        let i = Pipeline.instrument mech a in
        ( mech,
          Pipeline.result i,
          Pipeline.validation i,
          verify_errors (mech_s mech) (Pipeline.instrumented_ir i) ))
      static_mechs
  in
  static_result errs
    { m; stats; census; pt_i; pt_c; scope; elide; surface; findings; insts }

let static_traced ctx ~name text =
  let leaf name f = Span.leaf ctx name f in
  let m, errs, tokens = frontend ctx ~file:(name ^ ".c") text in
  let anal = leaf "sti.analyze" (fun () -> Analysis.analyze m) in
  let stats = leaf "sti.stats" (fun () -> Analysis.stats anal) in
  let census = leaf "sti.pp_census" (fun () -> Analysis.pp_census anal) in
  let pt_i =
    leaf "dataflow.points_to.insensitive" (fun () ->
        Points_to.analyze ~mode:Points_to.Insensitive m)
  in
  let pt_c =
    leaf "dataflow.points_to.cloning2" (fun () ->
        Points_to.analyze ~mode:cloning2 m)
  in
  let scope =
    leaf "dataflow.scope_escape" (fun () ->
        Scope_escape.analyze ~points_to:pt_c m)
  in
  let elide =
    leaf "staticcheck.elide" (fun () ->
        Elide.summary (Elide.analyze ~points_to:pt_c ~scope anal m))
  in
  let surface =
    List.map
      (fun mech ->
        leaf "dataflow.equiv" (fun () ->
            Equiv.analyze ~points_to:pt_c ~scope anal m mech))
      static_mechs
  in
  let findings =
    leaf "staticcheck.lint" (fun () ->
        List.length (Lint.run ~scope ~attack_surface:surface anal m))
  in
  let insts =
    List.map
      (fun mech ->
        let r =
          leaf ("rsti.instrument." ^ mech_s mech) (fun () ->
              Instrument.instrument mech anal m)
        in
        let v =
          leaf "dataflow.validate" (fun () -> Validate.check anal mech r.modul)
        in
        let verrs =
          leaf "ir.verify" (fun () -> verify_errors (mech_s mech) r.modul)
        in
        (mech, r, v, verrs))
      static_mechs
  in
  static_result ~tokens errs
    { m; stats; census; pt_i; pt_c; scope; elide; surface; findings; insts }

(* ------------------------------------------------------------------ *)
(* simulate-suites                                                      *)
(* ------------------------------------------------------------------ *)

let kernel_measured (w : W.Workload.t) =
  let ms =
    W.Run.measure ~config:{ W.Run.default_config with jobs = Some 1 } w sim_mechs
  in
  (* Both stages were built by [Run.measure]; these are cache hits. *)
  let c = Pipeline.compile (Pipeline.source ~file:(w.name ^ ".c") w.source) in
  let base = Pipeline.run_baseline c in
  let per (x : W.Run.measurement) =
    site_counts x.mech x.static_counts
    @ [
        ("machine.instrs." ^ mech_s x.mech, x.dyn.instrs);
        ("machine.cycles." ^ mech_s x.mech, x.mech_cycles);
        ("machine.pac_ops." ^ mech_s x.mech, pac_ops x.dyn);
      ]
  in
  {
    counts =
      (("ir.instrs", ir_instrs (Pipeline.ir c)) :: run_counts "base" base)
      @ List.concat_map per ms;
    errors = verify_errors "lowered" (Pipeline.ir c);
    sim_instrs =
      List.fold_left
        (fun acc (x : W.Run.measurement) -> acc + x.dyn.instrs)
        base.counts.instrs ms;
    tokens = 0;
  }

(* [Interp.create] is left at the machine's default seed, the one
   [Pipeline.run] uses: the seed also keys the PA unit, and with 7-bit
   PACs about one raw overwrite in 128 authenticates under another key,
   which would change a verdict between the two forms of an item. *)
let exec ctx ?pp_table ?flight ?attacks m =
  let vm =
    Span.leaf ctx "machine.create" (fun () ->
        Interp.create ?pp_table ?flight m)
  in
  Span.leaf ctx "machine.run" (fun () -> Interp.run ?attacks vm)

let kernel_traced ctx (w : W.Workload.t) =
  let m, errs, tokens = frontend ctx ~file:(w.name ^ ".c") w.source in
  let anal = Span.leaf ctx "sti.analyze" (fun () -> Analysis.analyze m) in
  let base = exec ctx m in
  let per mech =
    let r =
      Span.leaf ctx ("rsti.instrument." ^ mech_s mech) (fun () ->
          Instrument.instrument mech anal m)
    in
    let o = exec ctx ~pp_table:r.pp_table r.modul in
    let diverged =
      match (o.status, base.status) with
      | Interp.Exited a, Interp.Exited b when a = b && o.output = base.output ->
          []
      | _ -> [ Printf.sprintf "Run.Divergence under %s" (mech_s mech) ]
    in
    (site_counts mech r.counts @ run_counts (mech_s mech) o, diverged, o)
  in
  let runs = List.map per sim_mechs in
  let trapped =
    match base.status with
    | Interp.Exited _ -> []
    | Interp.Trapped t -> [ "baseline trapped: " ^ Interp.trap_to_string t ]
  in
  {
    counts =
      (("ir.instrs", ir_instrs m) :: run_counts "base" base)
      @ List.concat_map (fun (c, _, _) -> c) runs;
    errors = errs @ trapped @ List.concat_map (fun (_, e, _) -> e) runs;
    sim_instrs =
      List.fold_left
        (fun acc (_, _, (o : Interp.outcome)) -> acc + o.counts.instrs)
        base.counts.instrs runs;
    tokens;
  }

(* ------------------------------------------------------------------ *)
(* attack-catalog                                                       *)
(* ------------------------------------------------------------------ *)

let verdict_code = function
  | A.Scenario.Attack_succeeded -> 0
  | A.Scenario.Detected -> 1
  | A.Scenario.Attack_failed -> 2

let scenario_result ~id ~mech ~expect verdict (o : Interp.outcome) =
  let m = mech_s mech in
  let errors =
    (match expect with
    | Some e when e <> verdict ->
        [
          Printf.sprintf "%s under %s: verdict %s, expected %s" id m
            (A.Scenario.verdict_to_string verdict)
            (A.Scenario.verdict_to_string e);
        ]
    | _ -> [])
    @
    if verdict = A.Scenario.Detected && o.incidents = [] then
      [ Printf.sprintf "%s under %s: detected without an incident" id m ]
    else []
  in
  {
    counts =
      run_counts m o
      @ [
          ("machine.incidents." ^ m, List.length o.incidents);
          ("attacks.detected." ^ m, Bool.to_int (verdict = A.Scenario.Detected));
          ("attacks.verdict." ^ m, verdict_code verdict);
        ];
    errors;
    sim_instrs = o.counts.instrs;
    tokens = 0;
  }

let scenario_measured (sc : A.Scenario.t) mech expect =
  let r = A.Scenario.run ~flight:A.Incident.default_flight sc mech in
  scenario_result ~id:sc.id ~mech ~expect r.verdict r.outcome

(* [Scenario.run] taken apart: compile, analyze, instrument, load with
   the flight recorder on, run with the corruption hooks, classify. *)
let scenario_traced ctx (sc : A.Scenario.t) mech expect =
  Span.with_ ctx "attacks.scenario" @@ fun ctx ->
  let m, errs, tokens = frontend ctx ~file:(sc.id ^ ".c") sc.program in
  let anal = Span.leaf ctx "sti.analyze" (fun () -> Analysis.analyze m) in
  let r =
    Span.leaf ctx ("rsti.instrument." ^ mech_s mech) (fun () ->
        Instrument.instrument mech anal m)
  in
  let o =
    exec ctx ~pp_table:r.pp_table ~flight:A.Incident.default_flight
      ~attacks:sc.attacks r.modul
  in
  let verdict =
    if Interp.detected o then A.Scenario.Detected
    else if sc.success o then A.Scenario.Attack_succeeded
    else A.Scenario.Attack_failed
  in
  let res = scenario_result ~id:sc.id ~mech ~expect verdict o in
  {
    res with
    (* the stages [Scenario.run] keeps to itself *)
    counts = (("ir.instrs", ir_instrs m) :: site_counts mech r.counts) @ res.counts;
    errors = errs @ res.errors;
    tokens;
  }

let xval_catalog () =
  let rows = A.Crossval.catalog () in
  {
    counts =
      [
        ("attacks.crossval.catalog.checked", List.length rows);
        ( "attacks.crossval.catalog.replayable",
          List.length (List.filter (fun r -> r.A.Crossval.cr_static) rows) );
      ];
    errors =
      List.filter_map
        (fun (r : A.Crossval.catalog_row) ->
          if r.cr_agree then None
          else
            Some
              (Printf.sprintf "Crossval disagrees on %s under %s" r.cr_scenario
                 (mech_s r.cr_mech)))
        rows;
    sim_instrs = 0;
    tokens = 0;
  }

let xval_generated ~prog ~source mech =
  let b = A.Crossval.generated ~name:prog ~source mech in
  let checked = List.filter (fun r -> r.A.Crossval.g_agree <> None) b.gb_rows in
  {
    counts =
      [
        ("attacks.crossval.generated.checked", List.length checked);
        ( "attacks.crossval.generated.skipped",
          List.length b.gb_rows - List.length checked );
        ("attacks.crossval.generated.pool_same", b.gb_pool_same);
        ("attacks.crossval.generated.pool_cross", b.gb_pool_cross);
      ];
    errors =
      List.filter_map
        (fun (r : A.Crossval.gen_row) ->
          if r.g_agree = Some false then
            Some
              (Printf.sprintf "Crossval disagrees on %s: %s -> %s under %s"
                 r.g_program r.g_donor r.g_victim (mech_s r.g_mech))
          else None)
        b.gb_rows;
    sim_instrs = 0;
    tokens = 0;
  }

let coverage () =
  let cov = A.Incident.collect ~jobs:1 () in
  {
    counts =
      [
        ("attacks.coverage.runs", List.length cov.cov_runs);
        ("attacks.coverage.detected", cov.cov_detected);
        ("attacks.coverage.incidents", cov.cov_incidents);
        ("attacks.coverage.mapped", cov.cov_incidents - cov.cov_unmapped);
      ];
    errors =
      (if A.Incident.ok cov then []
       else
         [
           Printf.sprintf "Incident.ok is false: %d unmapped, %d missing"
             cov.cov_unmapped (List.length cov.cov_missing);
         ]);
    sim_instrs = 0;
    tokens = 0;
  }

(* ------------------------------------------------------------------ *)

let run ~traced ctx item =
  match (item, traced) with
  | Static { name; text }, false -> static_measured ~name text
  | Static { name; text }, true -> static_traced ctx ~name text
  | Kernel w, false -> kernel_measured w
  | Kernel w, true -> kernel_traced ctx w
  | Scenario { sc; mech; expect; _ }, false -> scenario_measured sc mech expect
  | Scenario { sc; mech; expect; _ }, true -> scenario_traced ctx sc mech expect
  | Xval_catalog, _ -> Span.with_ ctx "attacks.crossval" (fun _ -> xval_catalog ())
  | Xval_generated { prog; source; mech }, _ ->
      Span.with_ ctx "attacks.crossval" (fun _ -> xval_generated ~prog ~source mech)
  | Coverage, _ -> Span.with_ ctx "attacks.incident" (fun _ -> coverage ())
