module Observe = Rsti_observe.Observe

type stats = { hits : int; misses : int; duplicated : int }

(* Each stage owns its table and holds direct references to its
   observability counters (cache.<stage>.{hits,misses,duplicated}), so a
   bump is one lock-free atomic increment. *)
type ('k, 'v) stage = {
  name : string;
  span_name : string;
  lock : Mutex.t;
  table : ('k, 'v) Hashtbl.t;
  c_hits : Observe.Metrics.counter;
  c_misses : Observe.Metrics.counter;
  c_dup : Observe.Metrics.counter;
}

type any = Any : ('k, 'v) stage -> any

let registry = ref []

let stage name =
  let counter what = Observe.Metrics.counter ("cache." ^ name ^ "." ^ what) in
  let s =
    {
      name;
      span_name = "cache." ^ name;
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      c_hits = counter "hits";
      c_misses = counter "misses";
      c_dup = counter "duplicated";
    }
  in
  registry := Any s :: !registry;
  s

(* Declaration order is the pipeline order {!stage_stats} reports. *)
let compile = stage "compile"
let analysis = stage "analysis"
let points_to = stage "points_to"
let points_to_cs = stage "points_to_cs"
let scope_escape = stage "scope_escape"
let elide = stage "elide"
let elide_pt = stage "elide_pt"
let elide_ctx = stage "elide_ctx"
let instrument = stage "instrument"
let validate = stage "validate"
let outcome = stage "outcome"
let attack_surface = stage "attack_surface"

(* Serialized incident-extraction artifacts: opaque [Marshal] payloads,
   because the incident types live above this library. *)
let incident = stage "incident"
let stages = List.rev !registry

(* The compute runs outside the lock (it can take seconds). If two
   domains miss the same key at once, the first install wins and the
   loser returns the winner's value, counting as a hit and a duplicated:
   stages are deterministic, so both values are equal, and hits/misses
   match the serial schedule for any job count. *)
let memo s k compute =
  let sp = Observe.Span.enter s.span_name in
  let result, v =
    match Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.table k) with
    | Some v -> (`Hit, v)
    | None -> (
        let v = compute () in
        Mutex.protect s.lock (fun () ->
            match Hashtbl.find_opt s.table k with
            | Some w -> (`Duplicated, w)
            | None ->
                Hashtbl.replace s.table k v;
                (`Miss, v)))
  in
  let attr =
    match result with
    | `Hit ->
        Observe.Metrics.incr s.c_hits;
        "hit"
    | `Miss ->
        Observe.Metrics.incr s.c_misses;
        "miss"
    | `Duplicated ->
        Observe.Metrics.incr s.c_hits;
        Observe.Metrics.incr s.c_dup;
        "duplicated"
  in
  Observe.Span.add_attr sp "result" attr;
  Observe.Span.exit sp;
  v

let clear () =
  List.iter
    (fun (Any s) ->
      Mutex.protect s.lock (fun () -> Hashtbl.reset s.table);
      Observe.Metrics.set s.c_hits 0;
      Observe.Metrics.set s.c_misses 0;
      Observe.Metrics.set s.c_dup 0)
    stages

let stage_stats () =
  List.map
    (fun (Any s) ->
      ( s.name,
        {
          hits = Observe.Metrics.value s.c_hits;
          misses = Observe.Metrics.value s.c_misses;
          duplicated = Observe.Metrics.value s.c_dup;
        } ))
    stages

let stats () =
  List.fold_left
    (fun acc (_, s) ->
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        duplicated = acc.duplicated + s.duplicated;
      })
    { hits = 0; misses = 0; duplicated = 0 }
    (stage_stats ())

let source_key ~file text =
  Digest.to_hex (Digest.string (file ^ "\x00" ^ text))
