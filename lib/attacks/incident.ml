(* Security-event forensics over the attack catalogs: run every Table-1
   and Table-2 scenario with the machine's PAC flight recorder on,
   collect the structured incident records of each detected attack, and
   correlate them with the static substitution-attack-surface partition
   (Equiv) — which static class the failing authentication belongs to,
   which class signed the replayed value, and which statically
   replayable gadget edges the dynamic catalog actually exercised. *)

module RT = Rsti_sti.Rsti_type
module Interp = Rsti_machine.Interp
module Equiv = Rsti_dataflow.Equiv
module Points_to = Rsti_dataflow.Points_to
module Pipeline = Rsti_engine.Pipeline
module Cache = Rsti_engine.Cache
module Scheduler = Rsti_engine.Scheduler
module Observe = Rsti_observe.Observe
module Json = Observe.Json

let mechanisms = RT.all_mechanisms @ [ RT.Parts ]
let default_flight = 16

type record = {
  r_table : string;
  r_scenario : string;
  r_paper_row : string;
  r_mech : RT.mechanism;
  r_incident : Interp.incident;
  r_classes : Equiv.cls list;
  r_donor_classes : Equiv.cls list;
  r_pp : bool;
  r_mapped : bool;
}

type run_row = {
  rr_table : string;
  rr_scenario : string;
  rr_mech : RT.mechanism;
  rr_verdict : Scenario.verdict;
  rr_records : record list;
  rr_replay_edges : int;
  rr_feasible_edges : int;
}

type mech_cov = {
  mc_mech : RT.mechanism;
  mc_runs : int;
  mc_detected : int;
  mc_incidents : int;
  mc_mapped : int;
  mc_replays : int;
  mc_raw : int;
  mc_static_replay_edges : int;
  mc_static_feasible_edges : int;
  mc_replayable_total : int;
  mc_replayable_exercised : int;
  mc_nonedges_checked : int;
  mc_latency_cycles : int list;
  mc_latency_instrs : int list;
}

type coverage = {
  cov_flight : int;
  cov_runs : run_row list;
  cov_records : record list;
  cov_mechs : mech_cov list;
  cov_detected : int;
  cov_incidents : int;
  cov_unmapped : int;
  cov_missing : (string * RT.mechanism) list;
  cov_crossval : Crossval.catalog_row list;
}

(* ----------------------------------------------------------------- *)
(* Per-run extraction, memoized                                        *)
(* ----------------------------------------------------------------- *)

(* Attack replays bypass the outcome cache (attack closures are not part
   of any key), but the replay itself is deterministic — so the verdict
   and incident list are a pure function of (program, mechanism, flight
   capacity) and memoize under the engine's [incident] stage. The
   payload crosses the engine boundary serialized ([Marshal] of plain
   data: the incident types carry no closures), because the cache
   library sits below the attack types. *)
let run_key (sc : Scenario.t) mech flight =
  Printf.sprintf "%s|%s|fl%d|inc1"
    (Cache.source_key ~file:(sc.Scenario.id ^ ".c") sc.Scenario.program)
    (RT.mechanism_to_string mech)
    flight

let raw_run (sc : Scenario.t) mech flight :
    Scenario.verdict * Interp.incident list =
  let payload =
    Cache.memo Cache.incident (run_key sc mech flight) (fun () ->
        let rr = Scenario.run ~flight sc mech in
        Marshal.to_string
          ((rr.Scenario.verdict, rr.Scenario.outcome.Interp.incidents)
            : Scenario.verdict * Interp.incident list)
          [])
  in
  (Marshal.from_string payload 0 : Scenario.verdict * Interp.incident list)

let analyzed (sc : Scenario.t) =
  Pipeline.analyze
    (Pipeline.compile
       (Pipeline.source ~file:(sc.Scenario.id ^ ".c") sc.Scenario.program))

(* ----------------------------------------------------------------- *)
(* Static correlation                                                  *)
(* ----------------------------------------------------------------- *)

(* The window ends with the failing op itself, so its kind tells a
   pointer-to-pointer authentication apart from a slot one. *)
let failing_kind (inc : Interp.incident) =
  match List.rev inc.Interp.inc_window with
  | op :: _ when not op.Interp.op_ok -> op.Interp.op_kind
  | _ -> Interp.Op_auth

(* Flight-recorder ops carry the static modifier constant — exactly the
   class identity of the Equiv partition. Under STL several classes can
   share one (modifier, key) pair (the runtime modifier additionally
   binds the storage address), so the lookup returns the matching set. *)
let classes_of (surface : Equiv.result) ~static_mod ~key =
  List.filter
    (fun c ->
      Int64.equal c.Equiv.c_modifier static_mod && c.Equiv.c_pa_key = key)
    surface.Equiv.r_classes

let in_pp_table pp_table fe =
  List.exists (fun (_, fe') -> Int64.equal fe' fe) pp_table

let donor_resolved surface pp_table = function
  | None -> true (* raw overwrite: no signer to map *)
  | Some op -> (
      match op.Interp.op_kind with
      | Interp.Op_pp_sign -> in_pp_table pp_table op.Interp.op_static_mod
      | _ ->
          classes_of surface ~static_mod:op.Interp.op_static_mod
            ~key:op.Interp.op_key
          <> [])

let make_record ~table ~(scenario : Scenario.t) ~mech ~surface ~pp_table
    (inc : Interp.incident) =
  let pp = failing_kind inc = Interp.Op_pp_auth in
  let classes =
    if pp then []
    else
      classes_of surface ~static_mod:inc.Interp.inc_static_mod
        ~key:inc.Interp.inc_key
  in
  let donor_classes =
    match inc.Interp.inc_signer with
    | Some op when op.Interp.op_kind <> Interp.Op_pp_sign ->
        classes_of surface ~static_mod:op.Interp.op_static_mod
          ~key:op.Interp.op_key
    | _ -> []
  in
  let victim_ok =
    if pp then in_pp_table pp_table inc.Interp.inc_static_mod
    else classes <> []
  in
  let mapped =
    victim_ok && donor_resolved surface pp_table inc.Interp.inc_signer
  in
  {
    r_table = table;
    r_scenario = scenario.Scenario.id;
    r_paper_row = scenario.Scenario.paper_row;
    r_mech = mech;
    r_incident = inc;
    r_classes = classes;
    r_donor_classes = donor_classes;
    r_pp = pp;
    r_mapped = mapped;
  }

(* ----------------------------------------------------------------- *)
(* Collection                                                          *)
(* ----------------------------------------------------------------- *)

let catalog_rows () =
  List.map (fun sc -> ("table1", sc)) Catalog.all
  @ List.map (fun (sc, _) -> ("table2", sc)) Substitution.expected
  @ List.map (fun (sc, _) -> ("table2", sc)) Memory_safety.expected

let run_one ~table (sc : Scenario.t) mech flight =
  let verdict, incidents = raw_run sc mech flight in
  let anal = analyzed sc in
  let surface = Pipeline.attack_surface mech anal in
  let feasible =
    Pipeline.attack_surface ~mode:Points_to.Insensitive mech anal
  in
  let pp_table =
    (Pipeline.result (Pipeline.instrument mech anal))
      .Rsti_rsti.Instrument.pp_table
  in
  let records =
    List.map (make_record ~table ~scenario:sc ~mech ~surface ~pp_table)
      incidents
  in
  {
    rr_table = table;
    rr_scenario = sc.Scenario.id;
    rr_mech = mech;
    rr_verdict = verdict;
    rr_records = records;
    rr_replay_edges = surface.Equiv.r_metrics.Equiv.m_replay_edges;
    rr_feasible_edges = feasible.Equiv.r_metrics.Equiv.m_feasible_edges;
  }

let mech_cov runs crossval mech =
  let mruns = List.filter (fun r -> r.rr_mech = mech) runs in
  let mrecs = List.concat_map (fun r -> r.rr_records) mruns in
  let count p l = List.length (List.filter p l) in
  let latencies f =
    List.sort compare
      (List.filter_map (fun r -> f r.r_incident) mrecs)
  in
  let mcross =
    List.filter (fun c -> c.Crossval.cr_mech = mech) crossval
  in
  {
    mc_mech = mech;
    mc_runs = List.length mruns;
    mc_detected = count (fun r -> r.rr_verdict = Scenario.Detected) mruns;
    mc_incidents = List.length mrecs;
    mc_mapped = count (fun r -> r.r_mapped) mrecs;
    mc_replays =
      count (fun r -> r.r_incident.Interp.inc_signer <> None) mrecs;
    mc_raw = count (fun r -> r.r_incident.Interp.inc_signer = None) mrecs;
    mc_static_replay_edges =
      List.fold_left (fun a r -> a + r.rr_replay_edges) 0 mruns;
    mc_static_feasible_edges =
      List.fold_left (fun a r -> a + r.rr_feasible_edges) 0 mruns;
    mc_replayable_total = count (fun c -> c.Crossval.cr_static) mcross;
    mc_replayable_exercised =
      count
        (fun c ->
          c.Crossval.cr_static
          && c.Crossval.cr_dynamic = Scenario.Attack_succeeded)
        mcross;
    mc_nonedges_checked =
      count
        (fun c ->
          (not c.Crossval.cr_static)
          && c.Crossval.cr_dynamic = Scenario.Detected)
        mcross;
    mc_latency_cycles = latencies (fun i -> i.Interp.inc_latency_cycles);
    mc_latency_instrs = latencies (fun i -> i.Interp.inc_latency_instrs);
  }

let collect ?jobs ?(flight = default_flight) () =
  Observe.Span.with_ "incident.collect" @@ fun () ->
  let rows = catalog_rows () in
  (* Parallelism is over scenarios, never over a scenario's mechanisms:
     each scenario's cache keys stay owned by one domain (the same
     partitioning discipline the scheduler's other suite consumers
     follow), and the row order is restored by [Scheduler.map], so the
     collection is deterministic at any job count. *)
  let runs =
    List.concat
      (Scheduler.map ?jobs
         (fun (table, sc) ->
           List.map (fun mech -> run_one ~table sc mech flight) mechanisms)
         rows)
  in
  let crossval = Crossval.catalog () in
  let records = List.concat_map (fun r -> r.rr_records) runs in
  let missing =
    List.filter_map
      (fun r ->
        if r.rr_verdict = Scenario.Detected && r.rr_records = [] then
          Some (r.rr_scenario, r.rr_mech)
        else None)
      runs
  in
  List.iter
    (fun r ->
      Observe.Span.instant ~cat:"rsti-incident"
        ~attrs:
          [
            ("scenario", r.r_scenario);
            ("mech", RT.mechanism_to_string r.r_mech);
            ( "site",
              Printf.sprintf "%s:%d" r.r_incident.Interp.inc_func
                r.r_incident.Interp.inc_line );
          ]
        "pac-auth-failure")
    records;
  {
    cov_flight = flight;
    cov_runs = runs;
    cov_records = records;
    cov_mechs = List.map (mech_cov runs crossval) mechanisms;
    cov_detected =
      List.length
        (List.filter (fun r -> r.rr_verdict = Scenario.Detected) runs);
    cov_incidents = List.length records;
    cov_unmapped =
      List.length (List.filter (fun r -> not r.r_mapped) records);
    cov_missing = missing;
    cov_crossval = crossval;
  }

let ok cov = cov.cov_unmapped = 0 && cov.cov_missing = []

(* ----------------------------------------------------------------- *)
(* Event emission                                                      *)
(* ----------------------------------------------------------------- *)

let hex64 v = Printf.sprintf "0x%Lx" v
let opt_int = function None -> Json.Null | Some i -> Json.Int i

let signer_json = function
  | None -> Json.Null
  | Some (op : Interp.pac_op) ->
      Json.Obj
        [
          ("kind", Json.Str (Interp.op_kind_to_string op.Interp.op_kind));
          ("func", Json.Str op.Interp.op_func);
          ("line", Json.Int op.Interp.op_line);
          ( "key",
            Json.Str (Rsti_pa.Key.which_to_string op.Interp.op_key) );
          ("static_modifier", Json.Str (hex64 op.Interp.op_static_mod));
          ("modifier", Json.Str (hex64 op.Interp.op_modifier));
          ("cycle", Json.Int op.Interp.op_cycle);
          ("instr", Json.Int op.Interp.op_instr);
        ]

let incident_fields (inc : Interp.incident) =
  [
    ("func", Json.Str inc.Interp.inc_func);
    ("line", Json.Int inc.Interp.inc_line);
    ("key", Json.Str (Rsti_pa.Key.which_to_string inc.Interp.inc_key));
    ("expected_signer", Json.Str (hex64 inc.Interp.inc_static_mod));
    ("modifier", Json.Str (hex64 inc.Interp.inc_modifier));
    ("ptr", Json.Str (hex64 inc.Interp.inc_ptr));
    ("observed_signer", signer_json inc.Interp.inc_signer);
    ("window", Json.Int (List.length inc.Interp.inc_window));
    ("cycle", Json.Int inc.Interp.inc_cycle);
    ("instr", Json.Int inc.Interp.inc_instr);
    ("latency_cycles", opt_int inc.Interp.inc_latency_cycles);
    ("latency_instrs", opt_int inc.Interp.inc_latency_instrs);
  ]

let record_fields r =
  [
    ("table", Json.Str r.r_table);
    ("scenario", Json.Str r.r_scenario);
    ("mech", Json.Str (RT.mechanism_to_string r.r_mech));
  ]
  @ incident_fields r.r_incident
  @ [
    ( "class",
      match r.r_classes with
      | c :: _ -> Json.Str c.Equiv.c_label
      | [] -> if r.r_pp then Json.Str "<pp-table>" else Json.Null );
    ("classes", Json.Int (List.length r.r_classes));
    ("mapped", Json.Bool r.r_mapped);
  ]

let mech_fields mc =
  [
    ("mech", Json.Str (RT.mechanism_to_string mc.mc_mech));
    ("runs", Json.Int mc.mc_runs);
    ("detected", Json.Int mc.mc_detected);
    ("incidents", Json.Int mc.mc_incidents);
    ("mapped", Json.Int mc.mc_mapped);
    ("replays", Json.Int mc.mc_replays);
    ("raw_overwrites", Json.Int mc.mc_raw);
    ("static_replay_edges", Json.Int mc.mc_static_replay_edges);
    ("static_feasible_edges", Json.Int mc.mc_static_feasible_edges);
    ("replayable_total", Json.Int mc.mc_replayable_total);
    ("replayable_exercised", Json.Int mc.mc_replayable_exercised);
    ("nonedges_checked", Json.Int mc.mc_nonedges_checked);
  ]

let emit_events cov =
  List.iter
    (fun r ->
      Observe.Events.emit ~cat:"incident"
        ~name:(r.r_scenario ^ ":" ^ RT.mechanism_to_string r.r_mech)
        (record_fields r))
    cov.cov_records;
  List.iter
    (fun mc ->
      Observe.Events.emit ~cat:"coverage"
        ~name:(RT.mechanism_to_string mc.mc_mech)
        (mech_fields mc))
    cov.cov_mechs;
  Observe.Events.emit ~cat:"coverage" ~name:"summary"
    [
      ("flight", Json.Int cov.cov_flight);
      ("runs", Json.Int (List.length cov.cov_runs));
      ("detected", Json.Int cov.cov_detected);
      ("incidents", Json.Int cov.cov_incidents);
      ("unmapped", Json.Int cov.cov_unmapped);
      ("missing", Json.Int (List.length cov.cov_missing));
      ("verdict", Json.Str (if ok cov then "OK" else "FAIL"));
    ]
