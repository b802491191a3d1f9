(** Shared performance-measurement data for the Figure 9 / Figure 10 /
    correlation reproductions: every workload of every suite, run under
    the three RSTI mechanisms, measured once and reused. Collection fans
    out over the engine's domain pool (one task per workload) and merges
    deterministically — the record is identical for any job count. *)

type t = {
  spec2006 : Rsti_workloads.Run.measurement list;
  spec2017 : Rsti_workloads.Run.measurement list;
  nbench : Rsti_workloads.Run.measurement list;
  pytorch : Rsti_workloads.Run.measurement list;
  nginx : Rsti_workloads.Run.measurement list;
}

val collect : ?config:Rsti_workloads.Run.config -> unit -> t
(** Run everything (takes tens of seconds of simulation at one job;
    [config.jobs] parallelizes). Every stage goes through the engine's
    artifact cache, so later sections reuse these compiles, analyses and
    runs. *)

val of_mech : Rsti_workloads.Run.measurement list -> Rsti_sti.Rsti_type.mechanism ->
  Rsti_workloads.Run.measurement list

val overheads : Rsti_workloads.Run.measurement list -> float list

val all : t -> Rsti_workloads.Run.measurement list
(** Every measurement of every suite, concatenated. *)
