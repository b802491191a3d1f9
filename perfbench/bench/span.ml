(* The traced run's span recorder. Spans are taken by the benchmark
   itself, around each call it makes into a layer's public function, so
   no library code changes to be measured. Every span has a name, a
   start and end on the monotonic clock, the span that caused it and the
   id of the item it belongs to. Spans stay in memory until the run
   ends. Recording is off unless [on] is set; then [with_] is one branch
   and a direct call. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  item : int;
  name : string;
  t0 : float;
  t1 : float;
}

type ctx = { c_item : int; c_parent : int }

let on = ref false
let lock = Mutex.create ()
let next_id = Atomic.make 1
let recorded : t list ref = ref []

let now () = Int64.to_float (Rsti_observe.Observe.now_ns ()) *. 1e-9
let root item = { c_item = item; c_parent = 0 }

let with_ ctx name f =
  if not !on then f ctx
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      Mutex.protect lock (fun () ->
          recorded :=
            { id; parent = ctx.c_parent; item = ctx.c_item; name; t0; t1 }
            :: !recorded)
    in
    match f { ctx with c_parent = id } with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span around a call that makes no further layer calls. *)
let leaf ctx name f = with_ ctx name (fun _ -> f ())

let take () =
  Mutex.protect lock (fun () ->
      let l = !recorded in
      recorded := [];
      List.rev l)

let dur s = s.t1 -. s.t0

(* Self time: a span's duration minus the time its children cover.
   Children of one span run one after another on its domain, so their
   durations do not overlap. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, Float.max 0. (dur s -. c)))
    spans

(* Per span name: (calls, total seconds, self seconds), sorted by self
   time, largest first. *)
let table spans =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, tot, sf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (n + 1, tot +. dur s, sf +. self))
    (self_times spans);
  Hashtbl.fold (fun name (n, tot, sf) l -> (name, n, tot, sf) :: l) acc []
  |> List.sort (fun (a, _, _, x) (b, _, _, y) -> compare (y, a) (x, b))

let total_by_name spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur s else acc)
    0. spans
