(** The measurement runner behind Figures 9 and 10, built on the
    engine's staged pipeline: compiles a workload once (artifact-cached),
    runs it uninstrumented and under each requested mechanism, and
    reports cycle overheads. Instrumentation must not change program
    behaviour — the runner asserts that the instrumented run's output and
    exit status equal the baseline's, and raises [Divergence] otherwise
    (this doubles as a whole-pipeline correctness check that the test
    suite leans on). *)

exception Divergence of string
(** A mechanism changed a workload's observable behaviour. *)

type config = {
  costs : Rsti_machine.Cost.t;
      (** cycle model; the [Parts] mechanism always runs under
          {!Rsti_machine.Cost.parts_codegen} with this record's [pac] *)
  elision : Rsti_staticcheck.Elide.mode;
      (** proof-based instrumentation elision ({!Rsti_staticcheck.Elide})
          for the STWC/STC/STL runs, at syntactic or points-to
          precision; skipped sites are counted in
          [static_counts.elided] *)
  validate : bool;
      (** run the PAC-typestate validator over every instrumented module
          ({!Rsti_dataflow.Validate}); failures raise
          [Rsti_engine.Pipeline.Validation_failed] *)
  jobs : int option;
      (** fan-out width of {!measure_suite}; [None] defers to
          {!Rsti_engine.Scheduler.default_jobs} *)
}

val default_config : config
(** [Cost.default], no elision, no validation, engine-default jobs.
    Every stage goes through the engine's artifact cache. *)

type measurement = {
  workload : Workload.t;
  mech : Rsti_sti.Rsti_type.mechanism;
  base_cycles : int;
  mech_cycles : int;
  overhead_pct : float;                       (** (mech/base - 1) * 100 *)
  dyn : Rsti_machine.Interp.counts;           (** instrumented run *)
  static_counts : Rsti_rsti.Instrument.static_counts;
}

val measure :
  ?config:config ->
  Workload.t ->
  Rsti_sti.Rsti_type.mechanism list ->
  measurement list
(** One measurement per mechanism, in mechanism order. The
    output-equality assertion applies under elision too, so a
    behaviour-changing elision raises [Divergence]. *)

val measure_suite :
  ?config:config ->
  Workload.t list ->
  Rsti_sti.Rsti_type.mechanism list ->
  measurement list
(** {!measure} fanned out over the engine's domain pool
    ([config.jobs]); the result is flattened in workload order, so it is
    identical for any job count. *)

val analyze_workload : ?config:config -> Workload.t -> Rsti_sti.Analysis.t
(** The STI analysis of a workload over its full static population
    ([Workload.analysis_source] — kernel plus the generated module that
    scales types/variables to 1/8 of the real benchmark). *)

val geomean_overhead : measurement list -> float
(** Geometric-mean overhead (percent) across measurements. *)
