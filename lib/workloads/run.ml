module Interp = Rsti_machine.Interp
module RT = Rsti_sti.Rsti_type
module Pipeline = Rsti_engine.Pipeline
module Scheduler = Rsti_engine.Scheduler

exception Divergence of string

type config = {
  costs : Rsti_machine.Cost.t;
  elision : Rsti_staticcheck.Elide.mode;
  validate : bool;
  jobs : int option;
}

let default_config =
  {
    costs = Rsti_machine.Cost.default;
    elision = Rsti_staticcheck.Elide.Off;
    validate = false;
    jobs = None;
  }

type measurement = {
  workload : Workload.t;
  mech : RT.mechanism;
  base_cycles : int;
  mech_cycles : int;
  overhead_pct : float;
  dyn : Interp.counts;
  static_counts : Rsti_rsti.Instrument.static_counts;
}

let pipeline_config ?(mechs = RT.all_mechanisms) (c : config) =
  {
    Pipeline.default with
    costs = c.costs;
    elision = c.elision;
    validate = c.validate;
    jobs = c.jobs;
    mechanisms = mechs;
  }

let exit_code (o : Interp.outcome) =
  match o.Interp.status with
  | Interp.Exited code -> code
  | Interp.Trapped tr ->
      invalid_arg
        (Printf.sprintf "workload trapped: %s" (Interp.trap_to_string tr))

let measure ?(config = default_config) (w : Workload.t) mechs =
  let pcfg = pipeline_config ~mechs config in
  let analyzed =
    Pipeline.analyze ~config:pcfg
      (Pipeline.compile ~config:pcfg
         (Pipeline.source ~file:(w.Workload.name ^ ".c") w.Workload.source))
  in
  let base_outcome =
    Pipeline.run_baseline ~config:pcfg (Pipeline.compiled_of_analyzed analyzed)
  in
  let base_code = exit_code base_outcome in
  List.map
    (fun mech ->
      let run_cfg =
        if mech = RT.Parts then
          {
            pcfg with
            Pipeline.costs =
              {
                Rsti_machine.Cost.parts_codegen with
                pac = config.costs.Rsti_machine.Cost.pac;
              };
          }
        else pcfg
      in
      let inst = Pipeline.instrument ~config:pcfg mech analyzed in
      let o = Pipeline.run ~config:run_cfg inst in
      let code = exit_code o in
      if code <> base_code || o.Interp.output <> base_outcome.Interp.output then
        raise
          (Divergence
             (Printf.sprintf "%s under %s: exit %Ld vs %Ld, output %S vs %S"
                w.Workload.name (RT.mechanism_to_string mech) code base_code
                o.Interp.output base_outcome.Interp.output));
      let base_cycles = base_outcome.Interp.cycles in
      let mech_cycles = o.Interp.cycles in
      {
        workload = w;
        mech;
        base_cycles;
        mech_cycles;
        overhead_pct =
          (float_of_int mech_cycles /. float_of_int base_cycles -. 1.) *. 100.;
        dyn = o.Interp.counts;
        static_counts = (Pipeline.result inst).Rsti_rsti.Instrument.counts;
      })
    mechs

let measure_suite ?(config = default_config) ws mechs =
  List.concat
    (Scheduler.map ?jobs:config.jobs (fun w -> measure ~config w mechs) ws)

let analyze_workload ?(config = default_config) (w : Workload.t) =
  let pcfg = pipeline_config config in
  Pipeline.analysis
    (Pipeline.analyze ~config:pcfg
       (Pipeline.compile ~config:pcfg
          (Pipeline.source ~file:(w.Workload.name ^ ".c")
             (Workload.analysis_source w))))

let geomean_overhead ms =
  Rsti_util.Stats.geomean_overhead (List.map (fun m -> m.overhead_pct) ms)
