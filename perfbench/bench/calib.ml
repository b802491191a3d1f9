(* Host speed probe. The benchmark runs on shared hosts whose speed
   drifts by a quarter or more from one minute to the next, so that a
   pass time alone measures the host as much as the program. A chunk of
   fixed work that belongs to the benchmark is timed between passes; its
   median time over the run gives the host's speed during the run, and
   the benchmark's times are reported at a nominal speed: raw seconds
   times [nominal /. median chunk time].

   The chunk allocates nothing, so no garbage collection runs inside it
   and the program's heap cannot change its time. It walks a 512 KiB
   table with dependent loads and does integer arithmetic on what it
   reads. Each probe first runs one untimed chunk, so the table is back
   in the cache after the pass evicted it. The table and the samples are
   bigarrays, outside the OCaml heap, so they do not count in
   [peak_heap_mb]. *)

module A1 = Bigarray.Array1

(* The chunk's time on a host of the nominal speed. *)
let nominal = 1e-3

let table =
  let t = A1.create Bigarray.int Bigarray.c_layout 65_536 in
  for i = 0 to 65_535 do
    A1.unsafe_set t i ((i * 40_503) land 0xffff)
  done;
  t

let chunk () =
  let a = table in
  let x = ref 1 and acc = ref 0 in
  for i = 1 to 150_000 do
    x := A1.unsafe_get a ((!x + i) land 0xffff);
    acc := (!acc * 31) + !x
  done;
  ignore (Sys.opaque_identity !acc)

(* Chunk times in seconds; the first [!taken] are set. Past its size the
   run has its median many times over, and later probes are dropped. *)
let samples = A1.create Bigarray.float64 Bigarray.c_layout 65_536
let taken = ref 0

(* Time [n] chunks after a warm-up chunk. *)
let probe n =
  chunk ();
  for _ = 1 to n do
    let t0 = Span.now () in
    chunk ();
    let t = Span.now () -. t0 in
    if !taken < A1.dim samples then begin
      A1.unsafe_set samples !taken t;
      incr taken
    end
  done

(* Median chunk time in seconds, and the number of samples. *)
let median () =
  let a = Array.init !taken (A1.get samples) in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nominal, 0)
  else if n mod 2 = 1 then (a.(n / 2), n)
  else ((a.((n / 2) - 1) +. a.(n / 2)) /. 2., n)

(* Host seconds to nominal seconds. *)
let scale () = nominal /. fst (median ())
