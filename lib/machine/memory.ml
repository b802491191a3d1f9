type fault =
  | Unmapped of int64
  | Non_canonical of int64
  | Read_only of int64

exception Fault of fault

let fault_to_string = function
  | Unmapped a -> Printf.sprintf "unmapped address 0x%Lx" a
  | Non_canonical a ->
      Printf.sprintf "non-canonical address 0x%Lx (corrupted pointer?)" a
  | Read_only a -> Printf.sprintf "write to read-only address 0x%Lx" a

let page_bits = 12
let page_size = 1 lsl page_bits

(* Page numbers are ints: a canonical address has 48 bits. Pages are
   never unmapped, so the one-entry cache of the last page looked up
   can never go stale. *)
type t = {
  pages : (int, bytes) Hashtbl.t;
  mutable ro_regions : (int64 * int64) list; (* inclusive lo, exclusive hi *)
  mutable last_pno : int;
  mutable last_page : bytes;
}

let create () =
  { pages = Hashtbl.create 256; ro_regions = []; last_pno = -1; last_page = Bytes.empty }

let[@inline] is_canonical a = Int64.shift_right_logical a 48 = 0L

let[@inline] check_canonical a = if not (is_canonical a) then raise (Fault (Non_canonical a))

let[@inline] page_of a = Int64.to_int (Int64.shift_right_logical a page_bits)
let[@inline] offset_of a = Int64.to_int a land (page_size - 1)

let[@inline] get_page t a =
  check_canonical a;
  let pno = page_of a in
  if pno = t.last_pno then t.last_page
  else
    match Hashtbl.find t.pages pno with
    | p ->
        t.last_pno <- pno;
        t.last_page <- p;
        p
    | exception Not_found -> raise (Fault (Unmapped a))

let map t ~addr ~size =
  check_canonical addr;
  let first = page_of addr and last = page_of (Int64.add addr (Int64.of_int (max 0 (size - 1)))) in
  for p = first to last do
    if not (Hashtbl.mem t.pages p) then Hashtbl.replace t.pages p (Bytes.make page_size '\000')
  done

let protect t ~addr ~size =
  t.ro_regions <- (addr, Int64.add addr (Int64.of_int size)) :: t.ro_regions

let rec in_region a = function
  | [] -> false
  | (lo, hi) :: rest -> (a >= lo && a < hi) || in_region a rest

let[@inline] in_ro t a = t.ro_regions <> [] && in_region a t.ro_regions

let is_mapped t a = is_canonical a && Hashtbl.mem t.pages (page_of a)

let read_u8 t a = Char.code (Bytes.get (get_page t a) (offset_of a))

let write_u8_unchecked t a v =
  Bytes.set (get_page t a) (offset_of a) (Char.chr (v land 0xFF))

let write_u8 t a v =
  if in_ro t a then raise (Fault (Read_only a));
  write_u8_unchecked t a v

let read_u64 t a =
  (* Fast path when the word does not straddle a page. *)
  let off = offset_of a in
  if off + 8 <= page_size then Bytes.get_int64_le (get_page t a) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read_u8 t (Int64.add a (Int64.of_int i))))
    done;
    !v
  end

let write_u64_raw t a v =
  let off = offset_of a in
  if off + 8 <= page_size then Bytes.set_int64_le (get_page t a) off v
  else
    for i = 0 to 7 do
      write_u8_unchecked t (Int64.add a (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

let write_u64 t a v =
  if in_ro t a then raise (Fault (Read_only a));
  write_u64_raw t a v

(* [n] is never allocated up front: a length past the mapped region
   faults at its first unmapped byte. *)
let read_bytes t a n =
  let out = Buffer.create (max 1 (min n page_size)) in
  for i = 0 to n - 1 do
    Buffer.add_char out (Char.unsafe_chr (read_u8 t (Int64.add a (Int64.of_int i))))
  done;
  Buffer.to_bytes out

let write_bytes t a b =
  for i = 0 to Bytes.length b - 1 do
    write_u8 t (Int64.add a (Int64.of_int i)) (Char.code (Bytes.get b i))
  done

(* Frame transfers for the interpreter: the address is read from, and
   the value read into or written from, 8-byte slots of an unboxed
   register frame, so no int64 is boxed on the way. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let load_word t fr ~addr ~dst =
  let a = get64 fr addr in
  let off = offset_of a in
  if off <= page_size - 8 then set64 fr dst (Bytes.get_int64_le (get_page t a) off)
  else set64 fr dst (read_u64 t a)

let load_byte t fr ~addr ~dst =
  let a = get64 fr addr in
  set64 fr dst (Int64.of_int (Char.code (Bytes.get (get_page t a) (offset_of a))))

let store_word t fr ~addr ~src =
  let a = get64 fr addr in
  if in_ro t a then raise (Fault (Read_only a));
  let off = offset_of a in
  if off <= page_size - 8 then Bytes.set_int64_le (get_page t a) off (get64 fr src)
  else write_u64_raw t a (get64 fr src)

let store_byte t fr ~addr ~src =
  let a = get64 fr addr in
  if in_ro t a then raise (Fault (Read_only a));
  Bytes.set (get_page t a) (offset_of a) (Char.unsafe_chr (Int64.to_int (get64 fr src) land 0xFF))

let read_cstring t a =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= 65536 then Buffer.contents buf
    else begin
      let c = read_u8 t (Int64.add a (Int64.of_int i)) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
    end
  in
  go 0

let write_cstring t a s =
  String.iteri (fun i c -> write_u8 t (Int64.add a (Int64.of_int i)) (Char.code c)) s;
  write_u8 t (Int64.add a (Int64.of_int (String.length s))) 0
