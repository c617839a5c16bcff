(* A 4-ary min-heap stored as structure of arrays. Slot [i]'s key is the
   pair [keys.(2i)] (priority), [keys.(2i+1)] (insertion sequence) in one
   unboxed int array, so the four children of slot [i] (slots
   [4i+1 .. 4i+4]) are eight consecutive ints. Values live in the
   parallel [vals] array. Sifts move a hole and write each entry once, and
   no operation on the hot path allocates. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; vals = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Dead value slots hold an immediate instead of a popped value, so the
   heap keeps nothing it has handed back reachable. Every read is bounded
   by [size], so the filler is never returned as an ['a]; being an
   immediate, it also keeps [Array.make] from building a flat float
   array. *)
let vacate vals i = Array.unsafe_set vals i (Obj.magic 0)

(* Priority first, then insertion sequence: equal priorities come out
   FIFO. Sequences are unique, so this is a total order. *)
let[@inline] lt (p1 : int) (s1 : int) (p2 : int) (s2 : int) =
  p1 < p2 || (p1 = p2 && s1 < s2)

let[@inline] place keys vals i prio seq v =
  Array.unsafe_set keys (2 * i) prio;
  Array.unsafe_set keys ((2 * i) + 1) seq;
  Array.unsafe_set vals i v

(* All slot indices below are < [size] <= capacity, which is what makes
   the unchecked accesses safe. *)

(* Fill the hole at [i] with (prio, seq, v), moving it toward the root
   past every larger parent. *)
let rec sift_up keys vals i prio seq v =
  if i = 0 then place keys vals 0 prio seq v
  else begin
    let p = (i - 1) lsr 2 in
    let pp = Array.unsafe_get keys (2 * p)
    and ps = Array.unsafe_get keys ((2 * p) + 1) in
    if lt prio seq pp ps then begin
      place keys vals i pp ps (Array.unsafe_get vals p);
      sift_up keys vals p prio seq v
    end
    else place keys vals i prio seq v
  end

(* Fill the hole at [i] with (prio, seq, v), moving it toward the leaves
   past every smaller child; [size] bounds the live slots. *)
let rec sift_down keys vals size i prio seq v =
  let c = (4 * i) + 1 in
  if c >= size then place keys vals i prio seq v
  else begin
    let last = if c + 3 < size then c + 3 else size - 1 in
    let best = ref c in
    let bp = ref (Array.unsafe_get keys (2 * c))
    and bs = ref (Array.unsafe_get keys ((2 * c) + 1)) in
    for j = c + 1 to last do
      let jp = Array.unsafe_get keys (2 * j)
      and js = Array.unsafe_get keys ((2 * j) + 1) in
      if lt jp js !bp !bs then begin
        best := j;
        bp := jp;
        bs := js
      end
    done;
    if lt !bp !bs prio seq then begin
      place keys vals i !bp !bs (Array.unsafe_get vals !best);
      sift_down keys vals size !best prio seq v
    end
    else place keys vals i prio seq v
  end

let grow h =
  let cap = Array.length h.vals in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let keys = Array.make (2 * new_cap) 0 in
  let vals = Array.make new_cap (Obj.magic 0) in
  Array.blit h.keys 0 keys 0 (2 * h.size);
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.vals <- vals

let push h ~prio value =
  if h.size = Array.length h.vals then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = h.size in
  h.size <- i + 1;
  sift_up h.keys h.vals i prio seq value

let min_prio h =
  if h.size = 0 then invalid_arg "Heap.min_prio: empty heap";
  Array.unsafe_get h.keys 0

(* Take the entry at slot [i] out: the last entry fills the hole and
   sifts whichever way restores the heap order. Sinking the hole to a
   leaf first and sifting the entry back up (Floyd's variant) measured
   slower on the edge gateway's 20 k-deep queue. *)
let remove_at h i =
  let keys = h.keys and vals = h.vals in
  let v = Array.unsafe_get vals i in
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let lp = Array.unsafe_get keys (2 * last)
    and ls = Array.unsafe_get keys ((2 * last) + 1)
    and lv = Array.unsafe_get vals last in
    vacate vals last;
    let p = (i - 1) lsr 2 in
    if i > 0
       && lt lp ls (Array.unsafe_get keys (2 * p))
            (Array.unsafe_get keys ((2 * p) + 1))
    then sift_up keys vals i lp ls lv
    else sift_down keys vals last i lp ls lv
  end
  else vacate vals i;
  v

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  remove_at h 0

let pop h =
  if h.size = 0 then None
  else begin
    let prio = Array.unsafe_get h.keys 0 in
    Some (prio, remove_at h 0)
  end

let peek_prio h = if h.size = 0 then None else Some (Array.unsafe_get h.keys 0)

(* The entries sharing the root's priority form a subtree hanging from
   the root: no parent is larger than its child, so every ancestor of a
   minimum-priority entry has that priority too. The non-FIFO schedule
   policies walk that subtree only, O(bucket). *)
let rec bucket_count keys size p i =
  if i >= size || Array.unsafe_get keys (2 * i) <> p then 0
  else begin
    let c = (4 * i) + 1 in
    1 + bucket_count keys size p c
    + bucket_count keys size p (c + 1)
    + bucket_count keys size p (c + 2)
    + bucket_count keys size p (c + 3)
  end

let min_count h =
  if h.size = 0 then 0 else bucket_count h.keys h.size h.keys.(0) 0

(* Store the bucket's slot indices into [out] from [k] on; returns the
   next free position. *)
let rec bucket_slots keys size p out k i =
  if i >= size || Array.unsafe_get keys (2 * i) <> p then k
  else begin
    out.(k) <- i;
    let c = (4 * i) + 1 in
    let k = bucket_slots keys size p out (k + 1) c in
    let k = bucket_slots keys size p out k (c + 1) in
    let k = bucket_slots keys size p out k (c + 2) in
    bucket_slots keys size p out k (c + 3)
  end

let pop_min_nth h n =
  if h.size = 0 then None
  else begin
    let keys = h.keys in
    let p = keys.(0) in
    let b = bucket_count keys h.size p 0 in
    let n = if n < 0 then 0 else if n >= b then b - 1 else n in
    (* The root is the bucket's oldest entry. *)
    let i =
      if n = 0 then 0
      else begin
        let slots = Array.make b 0 in
        ignore (bucket_slots keys h.size p slots 0 0);
        Array.sort
          (fun a b -> compare keys.((2 * a) + 1) keys.((2 * b) + 1))
          slots;
        slots.(n)
      end
    in
    Some (p, remove_at h i)
  end

let clear h =
  h.size <- 0;
  h.keys <- [||];
  h.vals <- [||]
