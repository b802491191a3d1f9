(** The engine's content-keyed artifact cache: one generic first-writer-
    wins memo over typed stages.

    Every pipeline stage is a pure function of the source text plus a
    small stage key, so {!Pipeline} memoizes its artifacts under the MD5
    digest {!source_key} of [file ^ "\x00" ^ source]. The stages, in
    {!stage_stats} order, and their keys:

    {v
    stage           key                                  value
    compile         digest                               Ir.modul
    analysis        digest                               Sti.Analysis.t
    points_to       digest x Insensitive                 Points_to.t
    points_to_cs    digest x Cloning k                   Points_to.t
    scope_escape    digest x points-to mode              Scope_escape.t
    elide           digest                               slot -> bool
    elide_pt        digest                               slot -> bool
    elide_ctx       digest x k                           slot -> bool
    instrument      digest x (mechanism, elision mode)   Instrument.result
    validate        digest x (mechanism, elision mode)   Validate.report
    outcome         run key (digest x base-ISA prices    outcome x the cost
                    x machine knobs)                     record it was priced
                                                         under
    attack_surface  digest x (mechanism, points-to       Equiv.result
                    mode option)
    incident        incident key (digest x mechanism     Marshal payload
                    x flight capacity)
    v}

    A stage's compute resolves its dependencies from the stage values
    {!Pipeline} already carries, so a hit never looks anything else up.
    [outcome] holds attack-free runs only (attack closures are not part
    of any key); its key leaves out the instrumentation prices, and a
    hit under different ones is re-priced
    ({!Rsti_machine.Interp.reprice}) instead of re-simulated.
    [incident] holds [Rsti_attacks.Incident]'s serialized extraction of
    an attack replay, which is deterministic like every other stage.

    This is what makes whole-bench runs cheap: each artifact is built
    once per process instead of once per bench section.

    Domain safety: each stage's table is mutex-guarded, so concurrent
    lookups are safe. Artifact values themselves
    ({!Rsti_sti.Analysis.t} in particular) answer some queries by
    memoizing internally, so the engine's parallel paths hand any given
    key's artifacts to one domain at a time (tasks are partitioned by
    workload, and each workload owns its keys). *)

type stats = { hits : int; misses : int; duplicated : int }
(** A lookup that found its artifact is a hit; one that computed and
    installed it is a miss; one that computed but lost the install race
    to a concurrent miss counts as a hit *and* a [duplicated]. Hits and
    misses therefore match the serial schedule for any job count, and
    [duplicated] counts exactly the racing recomputations. *)

type ('k, 'v) stage
(** A named memo table from ['k] to ['v], with its own
    [cache.<stage>.{hits,misses,duplicated}] counters in
    {!Rsti_observe.Observe.Metrics}. *)

module PT := Rsti_dataflow.Points_to
module RT := Rsti_sti.Rsti_type
module Elide := Rsti_staticcheck.Elide

val compile : (string, Rsti_ir.Ir.modul) stage
val analysis : (string, Rsti_sti.Analysis.t) stage
val points_to : (string * PT.mode, PT.t) stage
val points_to_cs : (string * PT.mode, PT.t) stage
val scope_escape : (string * PT.mode, Rsti_dataflow.Scope_escape.t) stage
val elide : (string, Rsti_ir.Ir.slot -> bool) stage
val elide_pt : (string, Rsti_ir.Ir.slot -> bool) stage
val elide_ctx : (string * int, Rsti_ir.Ir.slot -> bool) stage

val instrument :
  (string * (RT.mechanism * Elide.mode), Rsti_rsti.Instrument.result) stage

val validate :
  (string * (RT.mechanism * Elide.mode), Rsti_dataflow.Validate.report) stage

val outcome : (string, Rsti_machine.Interp.outcome * Rsti_machine.Cost.t) stage

val attack_surface :
  (string * (RT.mechanism * PT.mode option), Rsti_dataflow.Equiv.result) stage

val incident : (string, string) stage

val memo : ('k, 'v) stage -> 'k -> (unit -> 'v) -> 'v
(** [memo stage key compute] returns the artifact stored under [key],
    or runs [compute] (outside the lock) and installs its result. When
    two domains miss the same key at once the first install wins and
    every caller gets that value. *)

val clear : unit -> unit
(** Drop every stage's artifacts and reset {!stats}. *)

val stats : unit -> stats
(** Aggregate over {!stage_stats}. *)

val stage_stats : unit -> (string * stats) list
(** Per-stage counts in the order of the table above. *)

val source_key : file:string -> string -> string
(** The digest every stage key is built on. *)
