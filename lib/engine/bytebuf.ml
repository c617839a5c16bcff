type t = { data : bytes; off : int; len : int }

let copied = ref 0

let copies_performed () = !copied

let reset_copy_counter () = copied := 0

let create len = { data = Bytes.make len '\000'; off = 0; len }

let of_bytes data = { data; off = 0; len = Bytes.length data }

let of_string s = of_bytes (Bytes.of_string s)

let to_string b = Bytes.sub_string b.data b.off b.len

let length b = b.len

let is_empty b = b.len = 0

let sub b off len =
  if off < 0 || len < 0 || off + len > b.len then
    invalid_arg
      (Printf.sprintf "Bytebuf.sub: off=%d len=%d in buffer of %d" off len
         b.len);
  { data = b.data; off = b.off + off; len }

let split b n = (sub b 0 n, sub b n (b.len - n))

let blit_dma ~src ~src_off ~dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > src.len then
    invalid_arg "Bytebuf.blit: source out of bounds";
  if dst_off < 0 || dst_off + len > dst.len then
    invalid_arg "Bytebuf.blit: destination out of bounds";
  Bytes.blit src.data (src.off + src_off) dst.data (dst.off + dst_off) len

let blit ~src ~src_off ~dst ~dst_off ~len =
  blit_dma ~src ~src_off ~dst ~dst_off ~len;
  copied := !copied + len

let concat parts =
  let total = List.fold_left (fun acc p -> acc + p.len) 0 parts in
  let out = create total in
  let pos = ref 0 in
  List.iter
    (fun p ->
       blit ~src:p ~src_off:0 ~dst:out ~dst_off:!pos ~len:p.len;
       pos := !pos + p.len)
    parts;
  out

let copy b =
  copied := !copied + b.len;
  { data = Bytes.sub b.data b.off b.len; off = 0; len = b.len }

let fill_pattern b ~seed =
  for i = 0 to b.len - 1 do
    Bytes.unsafe_set b.data (b.off + i)
      (Char.chr ((seed + (i * 31)) land 0xff))
  done

let fill_zero b = Bytes.fill b.data b.off b.len '\000'

let fill_random b rng =
  for i = 0 to b.len - 1 do
    Bytes.unsafe_set b.data (b.off + i) (Char.chr (Rng.int rng 256))
  done

(* Unchecked word load: a [t]'s [off]/[len] always lie inside [data]. The
   checked [Bytes.get_int64_ne] makes [equal] on 4 KB over twice as slow. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Eight bytes per step, then the tail; [n] bytes remain from [i]/[j]. *)
let rec equal_from da i db j n =
  if n >= 8 then
    get64u da i = get64u db j && equal_from da (i + 8) db (j + 8) (n - 8)
  else
    n = 0
    || Bytes.unsafe_get da i = Bytes.unsafe_get db j
       && equal_from da (i + 1) db (j + 1) (n - 1)

let equal a b = a.len = b.len && equal_from a.data a.off b.data b.off a.len

let checksum b =
  if b.off < 0 || b.off + b.len > Bytes.length b.data then
    invalid_arg "Bytebuf.checksum";
  let h = ref 0x3bf29ce484222325 in
  for i = b.off to b.off + b.len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b.data i)) * 0x100000001b3
  done;
  !h land max_int

module Pool = struct
  let slab = 64

  let free : bytes list ref = ref []
  let hits = ref 0
  let misses = ref 0

  let alloc n =
    if n < 0 then invalid_arg "Bytebuf.Pool.alloc: negative length";
    if n > slab then begin
      incr misses;
      { data = Bytes.create n; off = 0; len = n }
    end
    else
      match !free with
      | data :: rest ->
        free := rest;
        incr hits;
        { data; off = 0; len = n }
      | [] ->
        incr misses;
        { data = Bytes.create slab; off = 0; len = n }

  let release b =
    (* Only slabs we handed out come back: anything resized, sliced or
       foreign is simply dropped for the GC. *)
    if b.off = 0 && Bytes.length b.data = slab then free := b.data :: !free

  let pool_hits () = !hits
  let pool_misses () = !misses
  let pooled () = List.length !free

  (* Size-classed slabs for per-connection buffers (TCP send rings: a
     connection holds one only while it has unacknowledged bytes). The
     class key is the exact byte length: connection buffers come in a
     handful of configured sizes, so the table stays tiny. *)
  let sized : bytes list Itbl.t = Itbl.create 8

  let sized_hits_c = ref 0
  let sized_misses_c = ref 0
  let sized_parked = ref 0 (* bytes sitting in the sized free lists *)

  let alloc_bytes n =
    if n <= 0 then invalid_arg "Bytebuf.Pool.alloc_bytes: non-positive length";
    match Itbl.find_opt sized n with
    | Some (b :: rest) ->
      Itbl.replace sized n rest;
      incr sized_hits_c;
      sized_parked := !sized_parked - n;
      b
    | Some [] | None ->
      incr sized_misses_c;
      Bytes.create n

  let release_bytes b =
    let n = Bytes.length b in
    if n > 0 then begin
      let cur =
        match Itbl.find_opt sized n with Some l -> l | None -> []
      in
      Itbl.replace sized n (b :: cur);
      sized_parked := !sized_parked + n
    end

  let sized_hits () = !sized_hits_c
  let sized_misses () = !sized_misses_c
  let sized_parked_bytes () = !sized_parked

  let reset () =
    free := [];
    hits := 0;
    misses := 0;
    Itbl.reset sized;
    sized_hits_c := 0;
    sized_misses_c := 0;
    sized_parked := 0
end

(* Parked slabs belong to the grid that released them: drop them with the
   other per-grid registries. *)
let () = Lifecycle.on_reset Pool.reset

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Bytebuf.get";
  Bytes.get b.data (b.off + i)

let set b i c =
  if i < 0 || i >= b.len then invalid_arg "Bytebuf.set";
  Bytes.set b.data (b.off + i) c

let get_u8 b i = Char.code (get b i)

let set_u8 b i v = set b i (Char.chr (v land 0xff))

(* Multi-byte codecs: one range check, then one little-endian access, so an
   out-of-range store raises before writing anything. *)
let check_range name b i width =
  if i < 0 || i > b.len - width then invalid_arg name

let get_u16 b i =
  check_range "Bytebuf.get_u16" b i 2;
  Bytes.get_uint16_le b.data (b.off + i)

let set_u16 b i v =
  check_range "Bytebuf.set_u16" b i 2;
  Bytes.set_uint16_le b.data (b.off + i) v

let get_u32 b i =
  check_range "Bytebuf.get_u32" b i 4;
  Int32.to_int (Bytes.get_int32_le b.data (b.off + i)) land 0xffff_ffff

let set_u32 b i v =
  check_range "Bytebuf.set_u32" b i 4;
  Bytes.set_int32_le b.data (b.off + i) (Int32.of_int v)

let get_i64 b i =
  check_range "Bytebuf.get_i64" b i 8;
  Bytes.get_int64_le b.data (b.off + i)

let set_i64 b i v =
  check_range "Bytebuf.set_i64" b i 8;
  Bytes.set_int64_le b.data (b.off + i) v
