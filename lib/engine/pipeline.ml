module RT = Rsti_sti.Rsti_type
module Elide = Rsti_staticcheck.Elide
module PT = Rsti_dataflow.Points_to
module Observe = Rsti_observe.Observe

(* Stage spans carry just enough attrs to read a trace: the file for
   frontend stages, file x mechanism for the per-mechanism ones. The
   attr lists are built only when recording is on, so the disabled path
   costs one flag load per stage. *)
let stage_span name (attrs : unit -> (string * string) list) f =
  if Observe.enabled () then Observe.Span.with_ ~attrs:(attrs ()) name f
  else f ()

let c_reprices = Observe.Metrics.counter "cache.outcome.reprices"

type config = {
  costs : Rsti_machine.Cost.t;
  elision : Elide.mode;
  validate : bool;
  mechanisms : RT.mechanism list;
  cache : bool;
  jobs : int option;
}

let default =
  {
    costs = Rsti_machine.Cost.default;
    elision = Elide.Off;
    validate = false;
    mechanisms = RT.all_mechanisms;
    cache = true;
    jobs = None;
  }

exception Validation_failed of Rsti_dataflow.Validate.report

type source = { file : string; text : string; key : string }
type compiled = { src : source; modul : Rsti_ir.Ir.modul }
type analyzed = { comp : compiled; anal : Rsti_sti.Analysis.t }

type instrumented = {
  stage : analyzed;
  mech : RT.mechanism;
  elision : Elide.mode;
  result : Rsti_rsti.Instrument.result;
}

let source ?(file = "<memory>.c") text =
  { file; text; key = Cache.source_key ~file text }

(* Each stage names its work once, as one compute closure, which runs
   through the stage's memo when [config.cache] is set and directly when
   it is not. Keys are built on the stage value's source digest and the
   compute takes its inputs from the stage values themselves, so a hit
   looks nothing else up, and a stage value built with the cache off
   composes with later stages run with it on. *)
let memo config stage key compute =
  if config.cache then Cache.memo stage key compute else compute ()

let compile ?(config = default) (s : source) =
  stage_span "pipeline.compile" (fun () -> [ ("file", s.file) ]) @@ fun () ->
  let modul =
    memo config Cache.compile s.key (fun () ->
        Rsti_ir.Lower.compile ~file:s.file s.text)
  in
  { src = s; modul }

let analyze ?(config = default) (c : compiled) =
  stage_span "pipeline.analyze" (fun () -> [ ("file", c.src.file) ])
  @@ fun () ->
  let anal =
    memo config Cache.analysis c.src.key (fun () ->
        Rsti_sti.Analysis.analyze c.modul)
  in
  { comp = c; anal }

let mode_span name (c : compiled) mode =
  stage_span name (fun () ->
      [ ("file", c.src.file); ("mode", PT.mode_to_string mode) ])

(* The insensitive and cloned solves report under separate stages;
   [Cloning k] carries its k in the key. *)
let points_to ?(config = default) ?(mode = PT.Insensitive) (c : compiled) =
  mode_span "pipeline.points_to" c mode @@ fun () ->
  let stage =
    match mode with
    | PT.Insensitive -> Cache.points_to
    | PT.Cloning _ -> Cache.points_to_cs
  in
  memo config stage (c.src.key, mode) (fun () -> PT.analyze ~mode c.modul)

let scope_escape ?(config = default) ?(mode = PT.Insensitive) (c : compiled) =
  mode_span "pipeline.scope_escape" c mode @@ fun () ->
  memo config Cache.scope_escape (c.src.key, mode) (fun () ->
      Rsti_dataflow.Scope_escape.analyze
        ~points_to:(points_to ~config ~mode c)
        c.modul)

(* The static substitution-attack-surface partition for one mechanism.
   [mode = None] is the unconfined (oracle) attacker model; [Some m]
   refines feasibility with points-to confinement and scope escape at
   that precision. *)
let attack_surface ?(config = default) ?mode mech (a : analyzed) =
  stage_span "pipeline.attack_surface"
    (fun () ->
      [
        ("file", a.comp.src.file);
        ("mech", RT.mechanism_to_string mech);
        ( "mode",
          match mode with None -> "oracle" | Some m -> PT.mode_to_string m );
      ])
  @@ fun () ->
  memo config Cache.attack_surface (a.comp.src.key, (mech, mode)) (fun () ->
      match mode with
      | None -> Rsti_dataflow.Equiv.analyze a.anal a.comp.modul mech
      | Some m ->
          let pt = points_to ~config ~mode:m a.comp in
          let sc = scope_escape ~config ~mode:m a.comp in
          Rsti_dataflow.Equiv.analyze ~points_to:pt ~scope:sc a.anal
            a.comp.modul mech)

(* The elision proof at a precision; [Off] means "no predicate" and
   instruments every candidate site. *)
let elide_proof ~config mode (a : analyzed) =
  let proof stage key deps =
    Some
      (memo config stage key (fun () ->
           let points_to, scope = deps () in
           Elide.elide (Elide.analyze ?points_to ?scope a.anal a.comp.modul)))
  in
  let key = a.comp.src.key in
  match mode with
  | Elide.Off -> None
  | Elide.Syntactic -> proof Cache.elide key (fun () -> (None, None))
  | Elide.With_points_to ->
      proof Cache.elide_pt key (fun () -> (Some (points_to ~config a.comp), None))
  | Elide.With_context k ->
      proof Cache.elide_ctx (key, k) (fun () ->
          let mode = PT.Cloning k in
          let pt = points_to ~config ~mode a.comp in
          (Some pt, Some (scope_escape ~config ~mode a.comp)))

let elide_pred ?(config = default) ?(mode = Elide.Syntactic) a =
  Option.value (elide_proof ~config mode a) ~default:(fun _ -> false)

(* The PAC-typestate validator over an instrumented module: re-checks
   the rewriter's output against the signed-at-rest discipline. *)
let validation ?(config = default) (i : instrumented) =
  let s = i.stage.comp.src in
  stage_span "pipeline.validate"
    (fun () ->
      [ ("file", s.file); ("mech", RT.mechanism_to_string i.mech) ])
  @@ fun () ->
  memo config Cache.validate (s.key, (i.mech, i.elision)) (fun () ->
      Rsti_dataflow.Validate.check i.stage.anal i.mech
        i.result.Rsti_rsti.Instrument.modul)

let instrument ?(config = default) mech (a : analyzed) =
  (* Parts/Nop model toolchains without the whole-program proof; the
     elision stage key stays Off for them so the cache never splits. *)
  let elision =
    if mech = RT.Parts || mech = RT.Nop then Elide.Off else config.elision
  in
  let result =
    stage_span "pipeline.instrument"
      (fun () ->
        [
          ("file", a.comp.src.file);
          ("mech", RT.mechanism_to_string mech);
          ("elision", Elide.mode_to_string elision);
        ])
    @@ fun () ->
    memo config Cache.instrument (a.comp.src.key, (mech, elision)) (fun () ->
        Rsti_rsti.Instrument.instrument
          ?elide:(elide_proof ~config elision a)
          mech a.anal a.comp.modul)
  in
  let i = { stage = a; mech; elision; result } in
  if config.validate then begin
    let rep = validation ~config i in
    if not (Rsti_dataflow.Validate.ok rep) then raise (Validation_failed rep)
  end;
  i

let instrument_all ?(config = default) (a : analyzed) =
  List.map (fun mech -> instrument ~config mech a) config.mechanisms

(* Run outcomes are memoizable exactly when no attack closure is
   installed: the machine is deterministic, so the outcome is a pure
   function of the module's source digest, the cost record, and the
   machine knobs. Only the base ISA prices go into the key — the
   instrumentation prices (pac, strip, pp, pac_spill) map 1:1 onto
   outcome counters, so a hit under different ones is re-priced
   ({!Rsti_machine.Interp.reprice}) instead of re-simulated. That is
   what makes the PA-cost ablation cheap: one simulation per
   (workload, mechanism) serves the whole sweep. *)
let cost_key (c : Rsti_machine.Cost.t) =
  Printf.sprintf "%d.%d.%d.%d.%d.%d.%d" c.Rsti_machine.Cost.alu
    c.Rsti_machine.Cost.load c.Rsti_machine.Cost.store c.Rsti_machine.Cost.gep
    c.Rsti_machine.Cost.branch c.Rsti_machine.Cost.call
    c.Rsti_machine.Cost.extern_call

let knobs_key ?seed ?fpac ?cfi ?backend ?entry () =
  String.concat "|"
    [
      (match seed with None -> "-" | Some s -> Int64.to_string s);
      (match fpac with None -> "-" | Some b -> string_of_bool b);
      (match cfi with None -> "-" | Some b -> string_of_bool b);
      (match backend with None | Some `Pac -> "pac" | Some `Shadow_mac -> "mac");
      Option.value entry ~default:"main";
    ]

(* [prefix] names the run (source digest and machine knobs, and for
   instrumented runs the mechanism and elision); the base prices are
   appended here. A profiled outcome carries sites an unprofiled one
   lacks; likewise a flight-recorded one carries incidents, so both are
   part of the key. *)
let memo_run ~config ~attacks ~backend ~profile ~flight prefix exec =
  if attacks <> [] then exec ()
  else
    let costs = config.costs in
    let key =
      String.concat "|"
        (prefix
        @ [
            cost_key costs;
            (if profile then "prof" else "-");
            (if flight > 0 then "fl" ^ string_of_int flight else "-");
          ])
    in
    let o, priced = memo config Cache.outcome key (fun () -> (exec (), costs)) in
    if priced == costs || priced = costs then o
    else begin
      Observe.Metrics.incr c_reprices;
      Rsti_machine.Interp.reprice ~from:priced ~to_:costs
        ~pac_spill_charged:(backend <> Some `Shadow_mac)
        o
    end

let run ?(config = default) ?(attacks = []) ?seed ?fpac ?backend ?entry
    ?(profile = false) ?(flight = 0) (i : instrumented) =
  stage_span "pipeline.run"
    (fun () ->
      [
        ("file", i.stage.comp.src.file);
        ("mech", RT.mechanism_to_string i.mech);
      ])
  @@ fun () ->
  memo_run ~config ~attacks ~backend ~profile ~flight
    [
      "run";
      i.stage.comp.src.key;
      RT.mechanism_to_string i.mech;
      Elide.mode_to_string i.elision;
      knobs_key ?seed ?fpac ?backend ?entry ();
    ]
  @@ fun () ->
  let vm =
    Rsti_machine.Interp.create ~costs:config.costs ?seed ?fpac ?backend
      ~profile ~flight
      ~pp_table:i.result.Rsti_rsti.Instrument.pp_table
      i.result.Rsti_rsti.Instrument.modul
  in
  Rsti_machine.Interp.run ~attacks ?entry vm

(* An uninstrumented module executes no PA/xpac/pp instructions, so on
   top of the key's price-blindness the whole PA-cost ablation shares
   one baseline run per workload (re-pricing it is the identity: every
   instrumentation counter is zero). *)
let run_baseline ?(config = default) ?(attacks = []) ?seed ?fpac ?cfi ?backend
    ?entry ?(profile = false) ?(flight = 0) (c : compiled) =
  stage_span "pipeline.run_baseline" (fun () -> [ ("file", c.src.file) ])
  @@ fun () ->
  memo_run ~config ~attacks ~backend ~profile ~flight
    [ "base"; c.src.key; knobs_key ?seed ?fpac ?cfi ?backend ?entry () ]
  @@ fun () ->
  let vm =
    Rsti_machine.Interp.create ~costs:config.costs ?seed ?fpac ?cfi ?backend
      ~profile ~flight c.modul
  in
  Rsti_machine.Interp.run ~attacks ?entry vm

let file (s : source) = s.file
let text (s : source) = s.text
let source_of_compiled (c : compiled) = c.src
let ir (c : compiled) = c.modul
let compiled_of_analyzed (a : analyzed) = a.comp
let analysis (a : analyzed) = a.anal
let analyzed_ir (a : analyzed) = a.comp.modul
let analyzed_of_instrumented (i : instrumented) = i.stage
let mechanism (i : instrumented) = i.mech
let elision (i : instrumented) = i.elision
let elided (i : instrumented) = i.elision <> Elide.Off
let result (i : instrumented) = i.result
let instrumented_ir (i : instrumented) = i.result.Rsti_rsti.Instrument.modul
let counts (i : instrumented) = i.result.Rsti_rsti.Instrument.counts
