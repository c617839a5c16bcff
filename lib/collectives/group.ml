module Bb = Engine.Bytebuf
module Stats = Engine.Stats
module Clock = Engine.Clock
module Proc = Engine.Proc
module Ct = Circuit.Ct
module Node = Simnet.Node
module Netdb = Selector.Netdb
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics
module Event = Padico_obs.Event

exception Failed of string

type strategy = Flat | Multilevel

type redop = Sum | Max | Bxor

type opkind = Barrier | Bcast | Reduce | Allreduce | Gather | Scatter

let op_name = function
  | Barrier -> "barrier"
  | Bcast -> "bcast"
  | Reduce -> "reduce"
  | Allreduce -> "allreduce"
  | Gather -> "gather"
  | Scatter -> "scatter"

let op_index = function
  | Barrier -> 0
  | Bcast -> 1
  | Reduce -> 2
  | Allreduce -> 3
  | Gather -> 4
  | Scatter -> 5

let op_of_index = function
  | 0 -> Barrier
  | 1 -> Bcast
  | 2 -> Reduce
  | 3 -> Allreduce
  | 4 -> Gather
  | 5 -> Scatter
  | i -> invalid_arg (Printf.sprintf "Group: unknown opcode %d" i)

(* Which phases an operation runs: "up" flows towards the root (reductions,
   gathers, barrier arrival), "down" away from it (broadcasts, scatters,
   barrier/allreduce release). *)
let has_up = function
  | Barrier | Reduce | Allreduce | Gather -> true
  | Bcast | Scatter -> false

let has_down = function
  | Barrier | Bcast | Allreduce | Scatter -> true
  | Reduce | Gather -> false

(* ---------- healing wire opcodes ----------

   Data frames use hdr 0..11 (opcode*2 + phase). Healing control frames
   use the codes above that range; they never appear on a non-healing
   group's wire. *)

let hdr_hb = 12 (* heartbeat: empty, keeps phi low on idle links *)
let hdr_evict = 13 (* eviction flood: body = [count; dead ranks...] *)
let hdr_pull = 14 (* pull: seq field = pulled op, empty body *)
let hdr_serve = 15 (* re-served down/commit record for a pulled op *)

let monitor_ring = 2 (* cluster-ring monitoring distance, each side *)

(* Self-healing state: present only when the group was created with
   [?heal]. Everything the eviction agreement and operation retry need —
   the detector, the dead set with its epoch tag, pristine copies of this
   member's contribution to the in-flight operation, and the committed
   record of the last finished operation (so committed members can re-serve
   results to retrying neighbours instead of going silent). *)
type hstate = {
  det : Detect.t;
  unheard : unit -> unit; (* drops the node's transport-evidence watcher *)
  dead : bool array; (* confirmed-dead ranks, the agreement's object *)
  mutable epoch : int; (* |dead| — membership epoch, tags every frame *)
  mutable digest : int; (* FNV-1a over the dead ranks, detects divergence *)
  resynced : int array; (* last epoch we re-synced each rank at *)
  mutable inc : int; (* restart incarnation: invalidates stale closures *)
  mutable contrib : Bb.t option; (* pristine contribution to current op *)
  mutable centries : Bb.t array; (* pristine scatter payloads (root) *)
  mutable done_seq : int; (* last committed operation *)
  mutable done_op : opkind;
  mutable done_root : int;
  mutable drecord : Bb.t option; (* committed result, if the op had one *)
  mutable dentries : Bb.t array; (* committed scatter entries (root) *)
  mutable pulls : int list; (* ranks pulling the current op: serve at commit *)
  mutable deadline : Clock.timer option; (* cancellable op deadline *)
  mutable restarts : int;
  mutable evictions : int;
}

type t = {
  gname : string;
  strategy : strategy;
  deadline_ns : int option;
  clk : Clock.t; (* the member node's clock: virtual or monotonic *)
  ct : Ct.t;
  mutable db : Netdb.t; (* re-partitioned on each eviction *)
  rank : int;
  n : int;
  wmsgs : Stats.Counter.t; (* shared across members *)
  wbytes : Stats.Counter.t;
  (* Flat-array per-member state, allocated once and reused by every
     operation — no per-round allocation beyond outgoing buffers. *)
  mutable slots : Bb.t option array;
  (* gather contributions / scatter entries: [||] until the member's first
     gather or scatter, so groups running only barrier/bcast/reduce/
     allreduce do not pay n slots per member *)
  pending : (int * int * int * int * int * Bb.t) Queue.t;
  (* seq, src, hdr, epoch, digest, body *)
  mutable on_sent : unit -> unit; (* single hook, see create *)
  mutable heal : hstate option;
  mutable seq : int; (* operation sequence number, shared semantics *)
  mutable active : bool;
  mutable op : opkind;
  mutable root : int;
  mutable rop : redop;
  mutable expect_up : int; (* child messages still awaited *)
  mutable expect_down : int; (* parent messages still awaited: 0 or 1 *)
  mutable sends_pending : int; (* local adapter handoffs outstanding *)
  mutable acc : Bb.t option; (* reduction accumulator / payload / result *)
  mutable finish : (unit, string) result -> unit;
  mutable poisoned : string option;
  (* Tree coordinates of the current operation (root-dependent). *)
  mutable c_root : int; (* root's cluster *)
  mutable c_me : int; (* this member's cluster *)
  mutable mc : int; (* size of this member's cluster *)
  mutable base : int; (* cluster position of the cluster's tree root *)
  mutable v_me : int; (* intra-cluster virtual rank *)
  (* Stage-span bookkeeping for coll.stage trace events. *)
  mutable stage : string;
  mutable stage_since : int; (* -1 = no open stage *)
  mutable stage_bytes : int;
}

(* ---------- tree navigation ----------

   Multilevel: inside cluster [c], ranks form a binomial tree over virtual
   ranks obtained by rotating the cluster's member list so the cluster's
   tree root (the operation root in its own cluster, the Netdb leader
   elsewhere) sits at vrank 0. Across clusters, the operation root plus the
   other clusters' leaders form a top-level binomial tree over "top virtual
   ranks": the root is top-vrank 0 and the remaining clusters keep their
   Netdb order. All coordinates are integer arithmetic over Netdb's stored
   arrays — navigation allocates nothing. After an eviction the same
   arithmetic runs over the evicted partition, so the shrunken trees need
   no separate code path. *)

let croot t c = if c = t.c_root then t.root else Netdb.leader t.db c

let topv t c = if c = t.c_root then 0 else if c < t.c_root then c + 1 else c

let cluster_of_topv t u =
  if u = 0 then t.c_root else if u <= t.c_root then u - 1 else u

(* Actual rank at intra-cluster vrank [v] of this member's cluster. *)
let actual t v =
  let mems = Netdb.members t.db t.c_me in
  mems.((t.base + v) mod t.mc)

let parent_of t =
  if t.rank = t.root then -1
  else
    match t.strategy with
    | Flat -> t.root
    | Multilevel ->
      if t.v_me > 0 then actual t (Tree.parent t.v_me)
      else
        (* cluster tree root of a non-root cluster: top-level parent *)
        let pu = Tree.parent (topv t t.c_me) in
        croot t (cluster_of_topv t pu)

let iter_children_of t f =
  match t.strategy with
  | Flat ->
    if t.rank = t.root then
      for r = 0 to t.n - 1 do
        if
          r <> t.root
          && (match t.heal with Some h -> not h.dead.(r) | None -> true)
        then f r
      done
  | Multilevel ->
    (* Top-level (WAN) children first so inter-cluster messages leave the
       node before the intra-cluster fan-out — the stages pipeline. *)
    if t.v_me = 0 then begin
      let cc = Netdb.cluster_count t.db in
      Tree.iter_children ~m:cc (topv t t.c_me) (fun u ->
          f (croot t (cluster_of_topv t u)))
    end;
    Tree.iter_children ~m:t.mc t.v_me (fun v -> f (actual t v))

let child_count_of t =
  let c = ref 0 in
  iter_children_of t (fun _ -> incr c);
  !c

let is_child t r =
  let found = ref false in
  iter_children_of t (fun c -> if c = r then found := true);
  !found

(* The child whose subtree contains [dst] — scatter routing. Only called
   with destinations inside this member's subtree. *)
let route_child t dst =
  match t.strategy with
  | Flat -> dst
  | Multilevel ->
    let c_dst = Netdb.cluster_of t.db dst in
    if c_dst = t.c_me then
      let v_dst = (Netdb.position t.db dst - t.base + t.mc) mod t.mc in
      actual t (Tree.child_toward ~m:t.mc t.v_me ~target:v_dst)
    else
      let cc = Netdb.cluster_count t.db in
      let u =
        Tree.child_toward ~m:cc (topv t t.c_me) ~target:(topv t c_dst)
      in
      croot t (cluster_of_topv t u)

(* ---------- observability ---------- *)

let level_label t =
  match t.strategy with
  | Flat -> "flat"
  | Multilevel ->
    if t.v_me = 0 && Netdb.cluster_count t.db > 1 then "wan"
    else Netdb.level_name (Netdb.cluster_level t.db t.c_me)

let open_stage t stage =
  t.stage <- stage;
  t.stage_since <- Clock.now t.clk;
  t.stage_bytes <- 0

let close_stage t =
  if t.stage_since >= 0 then begin
    if Trace.on () then
      Trace.complete (Ct.node t.ct) ~since:t.stage_since
        (Event.Coll_stage
           { group = t.gname; op = op_name t.op; stage = t.stage;
             level = level_label t; bytes = t.stage_bytes });
    t.stage_since <- -1
  end

let emit_member t action rank ~epoch =
  if Trace.on () then
    Trace.instant (Ct.node t.ct)
      (Event.Member { group = t.gname; action; rank; epoch })

(* ---------- failure ---------- *)

let cancel_deadline t =
  match t.heal with
  | Some h -> (
    match h.deadline with
    | Some tm ->
      Clock.cancel tm;
      h.deadline <- None
    | None -> ())
  | None -> ()

let fail t msg =
  let msg = Printf.sprintf "group %s rank %d: %s" t.gname t.rank msg in
  t.poisoned <- Some msg;
  cancel_deadline t;
  if t.active then begin
    t.active <- false;
    close_stage t;
    let k = t.finish in
    t.finish <- (fun _ -> ());
    k (Error msg)
  end

(* Abort the current operation with an [Error] but do NOT poison the
   member: the group stays usable for subsequent operations. Used when a
   rooted operation's root is evicted — the operation cannot produce its
   result, but membership agreement is intact. *)
let abort_op t msg =
  if t.active then begin
    t.active <- false;
    cancel_deadline t;
    close_stage t;
    let k = t.finish in
    t.finish <- (fun _ -> ());
    k (Error (Printf.sprintf "group %s rank %d: %s" t.gname t.rank msg))
  end

(* ---------- framing ----------

   Wire format: [seq; hdr; body] on a plain group — byte-identical to the
   pre-healing layout. A healing group inserts the membership epoch tag:
   [seq; hdr; epoch; digest; body]; receivers use the tag to discard
   frames from before an eviction and to detect divergent dead sets. Data
   frames use hdr = opcode*2 + phase; control frames the hdr_* codes.
   WAN crossings (source and destination in different Netdb clusters) feed
   the shared counters — the quantity the multilevel strategy minimizes;
   heartbeats are exempt ([wan] false) so an idle healing group does not
   inflate them. *)

let send_frame t ~dst ~seq ~hdr ~wan ?on_sent fill =
  let out = Ct.begin_packing t.ct ~dst in
  Ct.pack_int out seq;
  Ct.pack_int out hdr;
  let base =
    match t.heal with
    | None -> 16
    | Some h ->
      Ct.pack_int out h.epoch;
      Ct.pack_int out h.digest;
      Detect.sent h.det ~peer:dst;
      32
  in
  let body_bytes = fill out in
  let total = base + body_bytes in
  if wan && Netdb.cluster_of t.db t.rank <> Netdb.cluster_of t.db dst then begin
    Stats.Counter.incr t.wmsgs;
    Stats.Counter.add t.wbytes total;
    if Trace.on () then
      Trace.instant (Ct.node t.ct)
        (Event.Coll_wan
           { group = t.gname; op = op_name t.op; dst; bytes = total })
  end;
  Ct.end_packing ?on_sent out;
  total

(* Control frames: no completion tracking, no stage accounting. Eviction
   floods, pulls and serves do count as WAN crossings — they are the
   measurable price of a recovery. *)
let send_ctl t ~dst ~seq ~hdr ~wan fill =
  ignore (send_frame t ~dst ~seq ~hdr ~wan fill : int)

let send_hb t ~dst = send_ctl t ~dst ~seq:0 ~hdr:hdr_hb ~wan:false (fun _ -> 0)

let send_evict t h ~dst =
  send_ctl t ~dst ~seq:0 ~hdr:hdr_evict ~wan:true (fun out ->
      let cnt = ref 0 in
      for r = 0 to t.n - 1 do
        if h.dead.(r) then incr cnt
      done;
      Ct.pack_int out !cnt;
      for r = 0 to t.n - 1 do
        if h.dead.(r) then Ct.pack_int out r
      done;
      8 * (!cnt + 1))

let send_pull t ~dst ~pseq =
  send_ctl t ~dst ~seq:pseq ~hdr:hdr_pull ~wan:true (fun _ -> 0)

(* ---------- eviction agreement primitives ---------- *)

(* FNV-1a over the dead ranks ascending, masked into 62 bits (the full
   64-bit basis would overflow OCaml's boxed-free int). Two members whose
   tags carry the same epoch (dead count) but different digests have
   diverged: each sends the other its full dead set and the union wins. *)
let digest_of_dead dead =
  let h = ref 0xbf29ce484222325 in
  Array.iteri
    (fun r d ->
       if d then
         h := (!h lxor r) * 0x100000001b3 land 0x3FFF_FFFF_FFFF_FFFF)
    dead;
  !h

let empty_digest = digest_of_dead [||]

(* Who this member watches: its neighbours at ring distance 1..K over its
   cluster's member positions (wrapping), plus — when it is the cluster's
   leader — every other cluster's leader. Deterministic from the Netdb
   partition, so all members agree on who is responsible for confirming
   whom; recomputed after each eviction. *)
let monitor_set t (h : hstate) =
  let db = t.db in
  let c = Netdb.cluster_of db t.rank in
  let mems = Netdb.members db c in
  let m = Array.length mems in
  let pos = Netdb.position db t.rank in
  let acc = ref [] in
  let k = min monitor_ring (m - 1) in
  for d = 1 to k do
    acc :=
      mems.((pos + d) mod m) :: mems.((pos - d + (2 * m)) mod m) :: !acc
  done;
  if Netdb.leader db c = t.rank then begin
    let cc = Netdb.cluster_count db in
    for c' = 0 to cc - 1 do
      if c' <> c then acc := Netdb.leader db c' :: !acc
    done
  end;
  List.filter
    (fun r -> r <> t.rank && not h.dead.(r))
    (List.sort_uniq compare !acc)

(* Monitored peers in another cluster ride the WAN: give the detector the
   loss-tolerant mean floor for them. *)
let wan_monitors t peers =
  let c = Netdb.cluster_of t.db t.rank in
  List.filter (fun r -> Netdb.cluster_of t.db r <> c) peers

let lowest_live t h =
  let r = ref (-1) in
  (try
     for i = 0 to t.n - 1 do
       if not h.dead.(i) then begin
         r := i;
         raise Exit
       end
     done
   with Exit -> ());
  !r

let stop_detector h =
  Detect.stop h.det;
  h.unheard ()

(* Record the newly confirmed deaths: mark them, re-partition the topology
   (Netdb.evict re-elects cluster proxies), bump the epoch tag, retarget
   the detector. If this member itself is in the dead set it has been
   evicted by the others — there is no way back (frames from it are
   ignored group-wide), so poison. *)
let mark_and_heal t h newly =
  List.iter
    (fun r ->
       h.dead.(r) <- true;
       t.db <- Netdb.evict t.db r;
       h.evictions <- h.evictions + 1;
       emit_member t "evict" r ~epoch:h.epoch)
    newly;
  let cnt = ref 0 in
  Array.iter (fun d -> if d then incr cnt) h.dead;
  h.epoch <- !cnt;
  h.digest <- digest_of_dead h.dead;
  emit_member t "epoch" t.rank ~epoch:h.epoch;
  if h.dead.(t.rank) then begin
    stop_detector h;
    fail t "evicted from the group"
  end
  else begin
    let mons = monitor_set t h in
    Detect.set_peers h.det ~wan:(wan_monitors t mons) mons
  end

(* ---------- committed-operation records ----------

   Liveness of a retry depends on members that already committed the
   operation: they will not re-send anything, so a retrying neighbour
   {e pulls} them and they re-serve the committed record. Because the root
   commits only after every live member contributed, live members' done
   sequence numbers can differ by at most one — retaining the single last
   record per member is enough. *)

let h_serve_record t h ~dst =
  send_ctl t ~dst ~seq:h.done_seq ~hdr:hdr_serve ~wan:true (fun out ->
      match h.done_op with
      | Barrier | Reduce | Gather -> 0
      | Allreduce | Bcast -> (
        match h.drecord with
        | Some p ->
          Ct.pack out p;
          Bb.length p
        | None -> 0)
      | Scatter ->
        if Array.length h.dentries = t.n && dst >= 0 && dst < t.n then begin
          let p = h.dentries.(dst) in
          Ct.pack_int out 1;
          Ct.pack_int out dst;
          Ct.pack_int out (Bb.length p);
          Ct.pack out p;
          24 + Bb.length p
        end
        else begin
          Ct.pack_int out 0;
          8
        end)

(* A pull for the already-committed op is served immediately; a pull for
   the op we are still running is queued and served at commit. Pulls from
   the future (we have not begun that op) are buffered by the caller. *)
let h_handle_pull t h ~src ~pseq =
  if pseq = h.done_seq then h_serve_record t h ~dst:src
  else if t.active && pseq = t.seq then begin
    if not (List.mem src h.pulls) then h.pulls <- src :: h.pulls
  end
(* other pseq: a pull for an op that failed locally — drop; the puller's
   own deadline is the backstop *)

let h_commit t h =
  h.done_seq <- t.seq;
  h.done_op <- t.op;
  h.done_root <- t.root;
  (match t.op with
   | Allreduce | Bcast -> h.drecord <- t.acc
   | Reduce -> h.drecord <- (if t.rank = t.root then t.acc else None)
   | Barrier | Gather | Scatter -> h.drecord <- None);
  (match t.op with
   | Scatter when t.rank = t.root -> h.dentries <- h.centries
   | _ -> h.dentries <- [||]);
  (match h.deadline with
   | Some tm ->
     Clock.cancel tm;
     h.deadline <- None
   | None -> ());
  let ps = h.pulls in
  h.pulls <- [];
  List.iter (fun src -> if not h.dead.(src) then h_serve_record t h ~dst:src) ps

(* ---------- completion ---------- *)

let maybe_complete t =
  if t.active && t.expect_up = 0 && t.expect_down = 0 && t.sends_pending = 0
  then begin
    t.active <- false;
    close_stage t;
    (match t.heal with Some h -> h_commit t h | None -> ());
    let k = t.finish in
    t.finish <- (fun _ -> ());
    k (Ok ())
  end

(* Fold a received contribution into the accumulator; the operators are
   associative and commutative so tree shape cannot change the result.
   Bxor and Sum go eight bytes per step, then the tail one byte at a time.
   Both work lane-wise on bytes, so the result is the byte-wise one
   whatever the machine's byte order; Sum adds the low seven bits of each
   lane, then xors in the two top bits, so no carry crosses a lane. Max
   takes the byte loop throughout. *)
let apply_rop rop acc body =
  let n = Bb.length acc in
  if Bb.length body <> n then invalid_arg "Group.apply_rop: length mismatch";
  let a = acc.Bb.data and ao = acc.Bb.off in
  let b = body.Bb.data and bo = body.Bb.off in
  let words = match rop with Max -> 0 | Sum | Bxor -> n lsr 3 in
  (let open Int64 in
   match rop with
   | Bxor ->
     for k = 0 to words - 1 do
       let i = ao + (k lsl 3) in
       let y = Bytes.get_int64_ne b (bo + (k lsl 3)) in
       Bytes.set_int64_ne a i (logxor (Bytes.get_int64_ne a i) y)
     done
   | Sum ->
     for k = 0 to words - 1 do
       let i = ao + (k lsl 3) in
       let x = Bytes.get_int64_ne a i
       and y = Bytes.get_int64_ne b (bo + (k lsl 3)) in
       Bytes.set_int64_ne a i
         (logxor
            (add (logand x 0x7f7f7f7f7f7f7f7fL) (logand y 0x7f7f7f7f7f7f7f7fL))
            (logand (logxor x y) 0x8080808080808080L))
     done
   | Max -> ());
  for i = words lsl 3 to n - 1 do
    let x = Char.code (Bytes.unsafe_get a (ao + i))
    and y = Char.code (Bytes.unsafe_get b (bo + i)) in
    Bytes.unsafe_set a (ao + i)
      (Char.unsafe_chr
         (match rop with
          | Sum -> (x + y) land 0xff
          | Max -> if y > x then y else x
          | Bxor -> x lxor y))
  done

let slots t =
  if Array.length t.slots = 0 then t.slots <- Array.make t.n None;
  t.slots

let clear_slots t =
  if Array.length t.slots > 0 then Array.fill t.slots 0 t.n None

(* Body cursor for parsing stored message bodies. *)
let read_int body pos =
  let v = Int64.to_int (Bb.get_i64 body !pos) in
  pos := !pos + 8;
  v

let read_buf body pos len =
  let b = Bb.sub body !pos len in
  pos := !pos + len;
  b

let pack_entries t out keep =
  (* Pack the slot entries selected by [keep] as [count; (rank; len;
     payload)...]. Returns body bytes. *)
  let cnt = ref 0 in
  for r = 0 to t.n - 1 do
    match (slots t).(r) with Some _ when keep r -> incr cnt | _ -> ()
  done;
  Ct.pack_int out !cnt;
  let bytes = ref 8 in
  for r = 0 to t.n - 1 do
    match (slots t).(r) with
    | Some p when keep r ->
      Ct.pack_int out r;
      Ct.pack_int out (Bb.length p);
      Ct.pack out p;
      bytes := !bytes + 16 + Bb.length p
    | _ -> ()
  done;
  !bytes

(* ---------- phase machinery ----------

   The default (non-healing) machinery is verbatim PR-6 behaviour. The
   h_-prefixed healing variants run every operation in two phases regardless of
   kind — up-first ops (barrier/reduce/allreduce/gather) add an explicit
   commit broadcast down the tree; down-first ops (bcast/scatter) add an
   explicit ack wave up it — so every member knows when an operation has
   committed group-wide and can retain the pristine state a retry needs
   only until then. Stray duplicates after a retry are benign: expected
   counters are forced and extra frames ignore-match. *)

let rec send t ~dst ~phase fill =
  t.sends_pending <- t.sends_pending + 1;
  let on_sent =
    match t.heal with
    | None -> t.on_sent
    | Some h ->
      (* A restart zeroes sends_pending; completions of frames handed off
         before it must not double-decrement — the incarnation guards. *)
      let i = h.inc in
      fun () ->
        if h.inc = i then begin
          t.sends_pending <- t.sends_pending - 1;
          maybe_complete t
        end
  in
  let total =
    send_frame t ~dst ~seq:t.seq
      ~hdr:((op_index t.op * 2) + phase)
      ~wan:true ~on_sent fill
  in
  t.stage_bytes <- t.stage_bytes + total

and forward_down t =
  match t.op with
  | Barrier ->
    iter_children_of t (fun c -> send t ~dst:c ~phase:1 (fun _ -> 0))
  | Bcast | Allreduce -> (
    match t.acc with
    | Some p ->
      iter_children_of t (fun c ->
          send t ~dst:c ~phase:1 (fun out ->
              Ct.pack out p;
              Bb.length p))
    | None -> fail t "down phase without a payload")
  | Scatter ->
    iter_children_of t (fun child ->
        let any = ref false in
        for dst = 0 to t.n - 1 do
          match (slots t).(dst) with
          | Some _ when route_child t dst = child -> any := true
          | _ -> ()
        done;
        if !any then begin
          send t ~dst:child ~phase:1 (fun out ->
              pack_entries t out (fun dst -> route_child t dst = child));
          (* Entries now travel in the child's subtree: release them. *)
          for dst = 0 to t.n - 1 do
            match (slots t).(dst) with
            | Some _ when route_child t dst = child -> (slots t).(dst) <- None
            | _ -> ()
          done
        end)
  | Reduce | Gather -> assert false

and up_complete t =
  if t.rank <> t.root then begin
    let p = parent_of t in
    (match t.op with
     | Barrier -> send t ~dst:p ~phase:0 (fun _ -> 0)
     | Reduce | Allreduce -> (
       match t.acc with
       | Some acc ->
         send t ~dst:p ~phase:0 (fun out ->
             Ct.pack out acc;
             Bb.length acc)
       | None -> fail t "up phase without an accumulator")
     | Gather ->
       send t ~dst:p ~phase:0 (fun out -> pack_entries t out (fun _ -> true))
     | Bcast | Scatter -> assert false);
    if t.active then begin
      close_stage t;
      if has_down t.op then open_stage t "down"
    end
  end
  else begin
    close_stage t;
    if has_down t.op then begin
      open_stage t "down";
      forward_down t
    end
  end

and handle_up t src body =
  if (not (has_up t.op)) || t.expect_up <= 0 then
    fail t
      (Printf.sprintf "unexpected up-phase message from rank %d during %s"
         src (op_name t.op))
  else begin
    (match t.op with
     | Barrier -> ()
     | Reduce | Allreduce -> (
       match t.acc with
       | Some acc when Bb.length body = Bb.length acc ->
         apply_rop t.rop acc body
       | Some acc ->
         fail t
           (Printf.sprintf "rank %d contributed %d bytes to %s, expected %d"
              src (Bb.length body) (op_name t.op) (Bb.length acc))
       | None -> fail t "up phase without an accumulator")
     | Gather ->
       let pos = ref 0 in
       let cnt = read_int body pos in
       for _ = 1 to cnt do
         let r = read_int body pos in
         let len = read_int body pos in
         let p = read_buf body pos len in
         if r >= 0 && r < t.n then (slots t).(r) <- Some p
       done
     | Bcast | Scatter -> assert false);
    if t.active then begin
      t.expect_up <- t.expect_up - 1;
      if t.expect_up = 0 then up_complete t;
      maybe_complete t
    end
  end

and handle_down t src body =
  if (not (has_down t.op)) || t.expect_down <> 1 then
    fail t
      (Printf.sprintf "unexpected down-phase message from rank %d during %s"
         src (op_name t.op))
  else begin
    t.expect_down <- 0;
    (match t.op with
     | Barrier -> ()
     | Bcast | Allreduce -> t.acc <- Some body
     | Scatter ->
       let pos = ref 0 in
       let cnt = read_int body pos in
       for _ = 1 to cnt do
         let r = read_int body pos in
         let len = read_int body pos in
         let p = read_buf body pos len in
         if r = t.rank then t.acc <- Some p
         else if r >= 0 && r < t.n then (slots t).(r) <- Some p
       done
     | Reduce | Gather -> assert false);
    forward_down t;
    maybe_complete t
  end

and dispatch t src hdr body =
  let phase = hdr land 1 in
  let idx = hdr asr 1 in
  if idx <> op_index t.op then
    fail t
      (Printf.sprintf
         "rank %d sent a %s message during %s — members disagree on the \
          operation"
         src
         (op_name (op_of_index idx))
         (op_name t.op))
  else if phase = 0 then handle_up t src body
  else handle_down t src body

(* ----- healing phase machinery ----- *)

and h_forward_down t =
  (* Down phase of a healing op: data for bcast/scatter, the (possibly
     empty) commit broadcast for up-first ops. *)
  match t.op with
  | Reduce | Gather ->
    iter_children_of t (fun c -> send t ~dst:c ~phase:1 (fun _ -> 0))
  | Barrier | Bcast | Allreduce | Scatter -> forward_down t

and h_send_up t =
  let p = parent_of t in
  (match t.op with
   | Barrier | Bcast | Scatter -> send t ~dst:p ~phase:0 (fun _ -> 0)
   | Reduce | Allreduce -> (
     match t.acc with
     | Some acc ->
       send t ~dst:p ~phase:0 (fun out ->
           Ct.pack out acc;
           Bb.length acc)
     | None -> fail t "up phase without an accumulator")
   | Gather ->
     send t ~dst:p ~phase:0 (fun out -> pack_entries t out (fun _ -> true)));
  if t.active && t.expect_down = 1 then begin
    close_stage t;
    open_stage t "down"
  end

and h_up_complete t =
  (* All expected child frames are in: data for up-first ops, acks for
     down-first ones. *)
  if t.rank = t.root then begin
    if has_up t.op then begin
      close_stage t;
      open_stage t "down";
      h_forward_down t
    end
    (* down-first root: all acks collected, maybe_complete fires *)
  end
  else if has_up t.op then h_send_up t
  else if t.expect_down = 0 then
    (* down-first non-root: ack the parent only once our own data arrived
       and was forwarded AND every child acked *)
    h_send_up t

and h_handle_up t src body =
  if t.expect_up <= 0 then ()
    (* stray duplicate after an adopt-commit or a retry — benign *)
  else begin
    (match t.op with
     | Barrier | Bcast | Scatter -> () (* arrival / ack: empty *)
     | Reduce | Allreduce -> (
       match t.acc with
       | Some acc when Bb.length body = Bb.length acc ->
         apply_rop t.rop acc body
       | Some acc ->
         fail t
           (Printf.sprintf "rank %d contributed %d bytes to %s, expected %d"
              src (Bb.length body) (op_name t.op) (Bb.length acc))
       | None -> fail t "up phase without an accumulator")
     | Gather ->
       let pos = ref 0 in
       let cnt = read_int body pos in
       for _ = 1 to cnt do
         let r = read_int body pos in
         let len = read_int body pos in
         let p = read_buf body pos len in
         if r >= 0 && r < t.n then (slots t).(r) <- Some p
       done);
    if t.active then begin
      t.expect_up <- t.expect_up - 1;
      if t.expect_up = 0 then h_up_complete t;
      maybe_complete t
    end
  end

and h_handle_down t _src body =
  if t.expect_down <> 1 then () (* duplicate commit after a retry — benign *)
  else begin
    t.expect_down <- 0;
    if has_up t.op then begin
      (* up-first op: this is the commit broadcast. Adopt it even if some
         child data never arrived (the root proved it has the full
         contribution set): force the up count and relay. *)
      (match t.op with Allreduce -> t.acc <- Some body | _ -> ());
      t.expect_up <- 0;
      h_forward_down t;
      maybe_complete t
    end
    else begin
      (* down-first op: this is the data. *)
      (match t.op with
       | Bcast -> t.acc <- Some body
       | Scatter ->
         let pos = ref 0 in
         let cnt = read_int body pos in
         for _ = 1 to cnt do
           let r = read_int body pos in
           let len = read_int body pos in
           let p = read_buf body pos len in
           if r = t.rank then t.acc <- Some p
           else if r >= 0 && r < t.n then (slots t).(r) <- Some p
         done
       | _ -> ());
      h_forward_down t;
      if t.active && t.expect_up = 0 then h_up_complete t;
      maybe_complete t
    end
  end

and h_dispatch t src hdr body =
  let phase = hdr land 1 in
  let idx = hdr asr 1 in
  if idx <> op_index t.op then
    fail t
      (Printf.sprintf
         "rank %d sent a %s message during %s — members disagree on the \
          operation"
         src
         (op_name (op_of_index idx))
         (op_name t.op))
  else if phase = 0 then h_handle_up t src body
  else h_handle_down t src body

and h_handle_serve t src body =
  if (not (has_up t.op)) && is_child t src then
    (* Down-first ops commit bottom-up: a child that re-serves has the
       data and its whole subtree acked, which is exactly its ack — not
       proof that the group committed. Adopting it would finish this
       member without acking its own parent, and the root would wait
       forever. *)
    h_handle_up t src body
  else h_adopt_serve t body

and h_adopt_serve t body =
  (* A committed neighbour re-served the operation we are retrying: adopt
     its result, stop expecting anything, relay to our subtree (whose
     members may be waiting on us the same way) and complete. *)
  (match t.op with
   | Barrier | Reduce | Gather -> ()
   | Allreduce | Bcast -> t.acc <- Some body
   | Scatter ->
     let pos = ref 0 in
     let cnt = read_int body pos in
     for _ = 1 to cnt do
       let r = read_int body pos in
       let len = read_int body pos in
       let p = read_buf body pos len in
       if r = t.rank then t.acc <- Some p
     done);
  t.expect_up <- 0;
  t.expect_down <- 0;
  (match t.op with
   | Scatter -> () (* scatter pulls go to the root directly; no relay *)
   | _ ->
     iter_children_of t (fun c ->
         send_ctl t ~dst:c ~seq:t.seq ~hdr:hdr_serve ~wan:true (fun out ->
             match t.op with
             | Allreduce | Bcast -> (
               match t.acc with
               | Some p ->
                 Ct.pack out p;
                 Bb.length p
               | None -> 0)
             | _ -> 0)));
  maybe_complete t

(* Replay buffered messages that match the current operation. Dispatching
   may complete the operation and let the caller start the next one
   reentrantly, so the queue length is only a rotation bound. *)
and drain_pending t =
  let rounds = Queue.length t.pending in
  for _ = 1 to rounds do
    if not (Queue.is_empty t.pending) then begin
      let ((seq, src, hdr, ep, dg, body) as msg) = Queue.pop t.pending in
      match t.heal with
      | None ->
        if t.active && seq = t.seq then dispatch t src hdr body
        else if seq > t.seq then Queue.push msg t.pending
        (* seq < t.seq: leftover from a failed operation — drop *)
      | Some h ->
        if h.dead.(src) || ep < h.epoch then () (* pre-eviction frame *)
        else if ep > h.epoch then Queue.push msg t.pending
        else if dg <> h.digest then send_evict t h ~dst:src
        else if hdr = hdr_pull then begin
          if seq > t.seq then Queue.push msg t.pending
          else h_handle_pull t h ~src ~pseq:seq
        end
        else if t.active && seq = t.seq then begin
          if hdr = hdr_serve then h_handle_serve t src body
          else h_dispatch t src hdr body
        end
        else if seq > t.seq then Queue.push msg t.pending
        else if seq = h.done_seq && hdr <> hdr_serve then
          (* a retrying neighbour re-sent data for an operation we already
             committed: re-serve our record so it can complete *)
          h_serve_record t h ~dst:src
    end
  done

(* Rewind and retry the in-flight operation over the shrunken membership:
   the heart of self-healing. The per-operation state is reset from the
   pristine contribution copies (the retry of a reduction must fold fresh,
   minus the dead rank), tree coordinates are recomputed over the evicted
   partition, and members that already committed are pulled so they
   re-serve their record instead of staying silent. *)
and restart_active t h =
  if t.active then begin
    h.inc <- h.inc + 1;
    t.sends_pending <- 0;
    (match h.deadline with
     | Some tm ->
       Clock.cancel tm;
       h.deadline <- None
     | None -> ());
    let rerooted = h.dead.(t.root) in
    if rerooted then begin
      match t.op with
      | Barrier | Allreduce ->
        (* rootless semantics: any agreed rank serves; take the lowest *)
        t.root <- lowest_live t h
      | Bcast | Reduce | Gather | Scatter ->
        abort_op t
          (Printf.sprintf "%s root (rank %d) died" (op_name t.op) t.root)
    end;
    if t.active then begin
      t.c_root <- Netdb.cluster_of t.db t.root;
      t.c_me <- Netdb.cluster_of t.db t.rank;
      t.mc <- Array.length (Netdb.members t.db t.c_me);
      t.base <- Netdb.position t.db (croot t t.c_me);
      t.v_me <- (Netdb.position t.db t.rank - t.base + t.mc) mod t.mc;
      clear_slots t;
      (match t.op with
       | Barrier -> t.acc <- None
       | Bcast ->
         t.acc <-
           (if t.rank = t.root then
              match h.contrib with Some p -> Some p | None -> t.acc
            else None)
       | Reduce | Allreduce -> (
         (* apply_rop scribbles on the accumulator: refold from a fresh
            copy of the pristine contribution *)
         match h.contrib with
         | Some p -> t.acc <- Some (Bb.copy p)
         | None -> t.acc <- None)
       | Gather ->
         t.acc <- None;
         (match h.contrib with
          | Some p -> (slots t).(t.rank) <- Some p
          | None -> ())
       | Scatter ->
         t.acc <- None;
         if t.rank = t.root && Array.length h.centries = t.n then
           for i = 0 to t.n - 1 do
             if i = t.rank then t.acc <- Some h.centries.(i)
             else if not h.dead.(i) then (slots t).(i) <- Some h.centries.(i)
           done);
      t.expect_up <- child_count_of t;
      t.expect_down <- (if t.rank = t.root then 0 else 1);
      h.restarts <- h.restarts + 1;
      emit_member t "restart" t.rank ~epoch:h.epoch;
      close_stage t;
      open_stage t "retry";
      (match t.deadline_ns with
       | None -> ()
       | Some d ->
         let s = t.seq and i = h.inc in
         h.deadline <-
           Some
             (Clock.arm t.clk d (fun () ->
                  if t.active && t.seq = s && h.inc = i then
                    fail t
                      (Printf.sprintf
                         "%s exceeded its %d ns deadline after eviction"
                         (op_name t.op) d))));
      (* kick the retry wave *)
      if has_up t.op then begin
        if t.expect_up = 0 then h_up_complete t
      end
      else if t.rank = t.root then h_forward_down t;
      (* pull members that may already have committed and gone quiet *)
      if t.active && t.rank <> t.root then begin
        let target =
          match t.op with Scatter -> t.root | _ -> parent_of t
        in
        send_pull t ~dst:target ~pseq:t.seq
      end;
      if t.active && rerooted && t.rank = t.root then
        (* a re-rooted, still-active root must learn whether the old root
           committed before dying (some member then holds the result):
           pull everyone, adopt the first serve *)
        for r = 0 to t.n - 1 do
          if (not h.dead.(r)) && r <> t.rank then send_pull t ~dst:r ~pseq:t.seq
        done
    end
  end

and h_handle_evict t h ~src body =
  let pos = ref 0 in
  let cnt = read_int body pos in
  let newly = ref [] in
  for _ = 1 to cnt do
    let r = read_int body pos in
    if r >= 0 && r < t.n && not h.dead.(r) then newly := r :: !newly
  done;
  let newly = List.sort_uniq compare !newly in
  if newly <> [] then begin
    mark_and_heal t h newly;
    if not h.dead.(t.rank) then begin
      (* reply with our union (the sender may be missing deaths we know)
         and relay inside our own cluster so the flood converges even if
         the confirmer's broadcast was cut short *)
      if not h.dead.(src) then send_evict t h ~dst:src;
      let c = Netdb.cluster_of t.db t.rank in
      Array.iter
        (fun r -> if r <> t.rank then send_evict t h ~dst:r)
        (Netdb.members t.db c);
      restart_active t h
    end
  end

and confirmed t h r =
  (* Detector verdict: [r] is dead. Evict it, flood the agreement to every
     live member, retry whatever was in flight. *)
  if r >= 0 && r < t.n && not h.dead.(r) then begin
    mark_and_heal t h [r];
    if not h.dead.(t.rank) then begin
      for dst = 0 to t.n - 1 do
        if (not h.dead.(dst)) && dst <> t.rank then send_evict t h ~dst
      done;
      restart_active t h
    end;
    drain_pending t;
    maybe_complete t
  end

(* ---------- operation start ---------- *)

let begin_op t op ~root finish =
  match t.poisoned with
  | Some msg ->
    finish (Error msg);
    false
  | None ->
    if t.active then
      invalid_arg
        (Printf.sprintf
           "Group %s rank %d: %s started while %s is still running (one \
            collective at a time)"
           t.gname t.rank (op_name op) (op_name t.op));
    if root < 0 || root >= t.n then
      invalid_arg
        (Printf.sprintf "Group %s: root %d out of range (size %d)" t.gname
           root t.n);
    (* A healing group may have evicted the requested root: rootless ops
       remap to the lowest live rank; rooted ops fail cleanly (without
       poisoning) but still consume the sequence number so all members
       stay aligned. *)
    let root, dead_root =
      match t.heal with
      | Some h when h.dead.(root) -> (
        match op with
        | Barrier | Allreduce -> (lowest_live t h, false)
        | Bcast | Reduce | Gather | Scatter -> (root, true))
      | _ -> (root, false)
    in
    t.seq <- t.seq + 1;
    if dead_root then begin
      finish
        (Error
           (Printf.sprintf "group %s rank %d: %s root (rank %d) was evicted"
              t.gname t.rank (op_name op) root));
      false
    end
    else begin
      t.active <- true;
      t.op <- op;
      t.root <- root;
      t.finish <- finish;
      t.c_root <- Netdb.cluster_of t.db root;
      t.c_me <- Netdb.cluster_of t.db t.rank;
      t.mc <- Array.length (Netdb.members t.db t.c_me);
      t.base <- Netdb.position t.db (croot t t.c_me);
      t.v_me <- (Netdb.position t.db t.rank - t.base + t.mc) mod t.mc;
      clear_slots t;
      t.acc <- None;
      (match t.heal with
       | None ->
         t.expect_up <- (if has_up op then child_count_of t else 0);
         t.expect_down <- (if has_down op && t.rank <> root then 1 else 0)
       | Some h ->
         (* two-phase shapes: every op acknowledges up and commits down *)
         h.contrib <- None;
         h.centries <- [||];
         t.expect_up <- child_count_of t;
         t.expect_down <- (if t.rank <> root then 1 else 0));
      open_stage t (if has_up op then "up" else "down");
      (match t.deadline_ns with
       | None -> ()
       | Some d -> (
         match t.heal with
         | None ->
           let s = t.seq in
           Clock.after t.clk d (fun () ->
               if t.active && t.seq = s then
                 fail t
                   (Printf.sprintf "%s exceeded its %d ns deadline"
                      (op_name op) d))
         | Some h ->
           (* cancellable: a healing group outlives deadlines routinely
              (commit cancels, restart re-arms) and on the wall clock a
              pending timer would pin the reactor *)
           let s = t.seq and i = h.inc in
           h.deadline <-
             Some
               (Clock.arm t.clk d (fun () ->
                    if t.active && t.seq = s && h.inc = i then
                      fail t
                        (Printf.sprintf "%s exceeded its %d ns deadline"
                           (op_name op) d)))));
      true
    end

let kickoff t =
  (match t.heal with
   | None ->
     if has_up t.op then begin
       if t.expect_up = 0 then up_complete t
     end
     else if t.rank = t.root then forward_down t
   | Some _ ->
     if has_up t.op then begin
       if t.expect_up = 0 then h_up_complete t
     end
     else if t.rank = t.root then h_forward_down t);
  drain_pending t;
  maybe_complete t

(* ---------- public operations ---------- *)

let ibarrier t k = if begin_op t Barrier ~root:0 (fun r -> k r) then kickoff t

let ibcast t ~root payload k =
  if
    begin_op t Bcast ~root (fun r ->
        match r with
        | Ok () -> (
          match t.acc with
          | Some p -> k (Ok p)
          | None -> k (Error "bcast completed without a payload"))
        | Error e -> k (Error e))
  then begin
    if t.rank = t.root then begin
      t.acc <- Some payload;
      match t.heal with Some h -> h.contrib <- Some payload | None -> ()
    end;
    kickoff t
  end

let ireduce t ~root ~op payload k =
  if
    begin_op t Reduce ~root (fun r ->
        match r with
        | Ok () -> k (Ok (if t.rank = t.root then t.acc else None))
        | Error e -> k (Error e))
  then begin
    t.rop <- op;
    (* Private accumulator: combining must not scribble on the caller's
       buffer. *)
    t.acc <- Some (Bb.copy payload);
    (match t.heal with Some h -> h.contrib <- Some payload | None -> ());
    kickoff t
  end

let iallreduce t ~op payload k =
  if
    begin_op t Allreduce ~root:0 (fun r ->
        match r with
        | Ok () -> (
          match t.acc with
          | Some p -> k (Ok p)
          | None -> k (Error "allreduce completed without a result"))
        | Error e -> k (Error e))
  then begin
    t.rop <- op;
    t.acc <- Some (Bb.copy payload);
    (match t.heal with Some h -> h.contrib <- Some payload | None -> ());
    kickoff t
  end

let igather t ~root payload k =
  if
    begin_op t Gather ~root (fun r ->
        match r with
        | Ok () ->
          if t.rank <> t.root then k (Ok None)
          else begin
            let is_dead i =
              match t.heal with Some h -> h.dead.(i) | None -> false
            in
            let missing = ref (-1) in
            for i = t.n - 1 downto 0 do
              if (not (is_dead i)) && (slots t).(i) = None then missing := i
            done;
            if !missing >= 0 then
              k
                (Error
                   (Printf.sprintf
                      "gather completed without rank %d's contribution"
                      !missing))
            else
              k
                (Ok
                   (Some
                      (Array.init t.n (fun i ->
                           match (slots t).(i) with
                           | Some p -> p
                           | None ->
                             (* evicted rank: zero-length placeholder *)
                             Bb.create 0))))
          end
        | Error e -> k (Error e))
  then begin
    (slots t).(t.rank) <- Some payload;
    (match t.heal with Some h -> h.contrib <- Some payload | None -> ());
    kickoff t
  end

let iscatter t ~root payloads k =
  if t.rank = root && Array.length payloads <> t.n then
    invalid_arg
      (Printf.sprintf "Group %s: scatter expects %d payloads, got %d" t.gname
         t.n (Array.length payloads));
  if
    begin_op t Scatter ~root (fun r ->
        match r with
        | Ok () -> (
          match t.acc with
          | Some p -> k (Ok p)
          | None -> k (Error "scatter completed without an entry"))
        | Error e -> k (Error e))
  then begin
    if t.rank = root then begin
      let is_dead i =
        match t.heal with Some h -> h.dead.(i) | None -> false
      in
      for i = 0 to t.n - 1 do
        if not (is_dead i) then
          if i = t.rank then t.acc <- Some payloads.(i)
          else (slots t).(i) <- Some payloads.(i)
      done;
      match t.heal with
      | Some h -> h.centries <- Array.copy payloads
      | None -> ()
    end;
    kickoff t
  end

(* ---------- blocking wrappers ---------- *)

(* Completion may be synchronous (single-member group, poisoned group):
   only suspend when the callback has not fired yet. *)
let await f =
  let cell = ref None in
  let waiting = ref None in
  f (fun r ->
      match !waiting with Some resume -> resume r | None -> cell := Some r);
  match !cell with
  | Some r -> r
  | None -> Proc.suspend (fun resume -> waiting := Some resume)

let ok = function Ok v -> v | Error e -> raise (Failed e)

let barrier t = ok (await (fun k -> ibarrier t k))
let bcast t ~root p = ok (await (fun k -> ibcast t ~root p k))
let reduce t ~root ~op p = ok (await (fun k -> ireduce t ~root ~op p k))
let allreduce t ~op p = ok (await (fun k -> iallreduce t ~op p k))
let gather t ~root p = ok (await (fun k -> igather t ~root p k))
let scatter t ~root ps = ok (await (fun k -> iscatter t ~root ps k))

(* ---------- construction ---------- *)

let create ?(strategy = Multilevel) ?deadline_ns ?heal padico ~name nodes =
  let cts = Padico.circuit padico ~name:("coll." ^ name) nodes in
  let group = Array.of_list nodes in
  let db0 = Netdb.build (Padico.net padico) group in
  let wmsgs =
    Metrics.fresh_counter Metrics.Global ("coll." ^ name ^ ".wan_msgs")
  in
  let wbytes =
    Metrics.fresh_counter Metrics.Global ("coll." ^ name ^ ".wan_bytes")
  in
  let n = Array.length group in
  Array.mapi
    (fun rank ct ->
       let node = Ct.node ct in
       let t =
         { gname = name; strategy; deadline_ns; clk = Node.clock node; ct;
           db = db0; rank; n; wmsgs; wbytes; slots = [||];
           pending = Queue.create (); on_sent = (fun () -> ()); heal = None;
           seq = 0; active = false; op = Barrier; root = 0; rop = Sum;
           expect_up = 0; expect_down = 0; sends_pending = 0; acc = None;
           finish = (fun _ -> ()); poisoned = None; c_root = 0; c_me = 0;
           mc = 1; base = 0; v_me = 0; stage = ""; stage_since = -1;
           stage_bytes = 0 }
       in
       t.on_sent <-
         (fun () ->
            t.sends_pending <- t.sends_pending - 1;
            maybe_complete t);
       (match heal with
        | None ->
          Ct.set_recv ct (fun inc ->
              let seq = Ct.unpack_int inc in
              let hdr = Ct.unpack_int inc in
              let src = Ct.incoming_src inc in
              let body = Ct.unpack inc (Ct.remaining inc) in
              if t.active && seq = t.seq then dispatch t src hdr body
              else if seq > t.seq then
                Queue.push (seq, src, hdr, 0, 0, body) t.pending
              (* seq <= t.seq while inactive: the operation failed locally
                 (deadline) — drop the late message *))
        | Some dcfg ->
          let det = Detect.create ~config:dcfg ~name:("coll." ^ name) node in
          (* data the transport holds back (TCP reassembly behind a lost
             segment) still proves its sender lives *)
          let unheard =
            Node.on_heard node (fun src ->
                match Ct.rank_of_node_id ct src with
                | Some r -> Detect.alive det ~peer:r
                | None -> ())
          in
          let h =
            { det; unheard; dead = Array.make n false; epoch = 0;
              digest = empty_digest; resynced = Array.make n (-1); inc = 0;
              contrib = None; centries = [||]; done_seq = 0;
              done_op = Barrier; done_root = 0; drecord = None;
              dentries = [||]; pulls = []; deadline = None; restarts = 0;
              evictions = 0 }
          in
          t.heal <- Some h;
          let mons = monitor_set t h in
          Detect.set_peers det ~wan:(wan_monitors t mons) mons;
          (* real-socket death (TCP reset) short-circuits phi accrual *)
          Ct.set_on_peer_down ct (fun r ->
              if r >= 0 && r < n then Detect.link_dead det ~peer:r);
          Detect.start det
            ~send_hb:(fun p -> send_hb t ~dst:p)
            ~on_confirm:(fun r -> confirmed t h r)
            ();
          Ct.set_recv ct (fun inc ->
              let seq = Ct.unpack_int inc in
              let hdr = Ct.unpack_int inc in
              let ep = Ct.unpack_int inc in
              let dg = Ct.unpack_int inc in
              let src = Ct.incoming_src inc in
              let body = Ct.unpack inc (Ct.remaining inc) in
              if not h.dead.(src) then begin
                Detect.heard det ~peer:src;
                if hdr = hdr_hb then ()
                else if hdr = hdr_evict then begin
                  h_handle_evict t h ~src body;
                  drain_pending t;
                  maybe_complete t
                end
                else if ep > h.epoch then
                  (* the sender knows deaths we have not heard of yet; its
                     EVICT flood is coming — park the frame *)
                  Queue.push (seq, src, hdr, ep, dg, body) t.pending
                else if ep < h.epoch then begin
                  (* pre-eviction frame: drop, and re-sync the laggard
                     (once per epoch per rank) *)
                  if h.resynced.(src) < h.epoch then begin
                    h.resynced.(src) <- h.epoch;
                    send_evict t h ~dst:src
                  end
                end
                else if dg <> h.digest then
                  (* same death count, different dead sets: exchange *)
                  send_evict t h ~dst:src
                else if hdr = hdr_pull then begin
                  if seq > t.seq then
                    Queue.push (seq, src, hdr, ep, dg, body) t.pending
                  else h_handle_pull t h ~src ~pseq:seq
                end
                else if t.active && seq = t.seq then begin
                  if hdr = hdr_serve then h_handle_serve t src body
                  else h_dispatch t src hdr body
                end
                else if seq > t.seq then
                  Queue.push (seq, src, hdr, ep, dg, body) t.pending
                else if seq = h.done_seq && hdr <> hdr_serve then
                  (* a retrying neighbour re-sent data for an operation we
                     already committed (its restart crossed our commit):
                     re-serve the record so it can complete *)
                  h_serve_record t h ~dst:src
                (* other seq <= t.seq while inactive: late frame — drop *)
              end));
       t)
    cts

(* ---------- accessors ---------- *)

let name t = t.gname
let rank t = t.rank
let size t = t.n
let strategy t = t.strategy
let netdb t = t.db
let poisoned t = t.poisoned
let wan_messages t = Stats.Counter.value t.wmsgs
let wan_bytes t = Stats.Counter.value t.wbytes

let healing t = match t.heal with Some _ -> true | None -> false
let epoch t = match t.heal with Some h -> h.epoch | None -> 0

let live_count t =
  match t.heal with
  | None -> t.n
  | Some h ->
    let c = ref 0 in
    Array.iter (fun d -> if not d then incr c) h.dead;
    !c

let dead_ranks t =
  match t.heal with
  | None -> []
  | Some h ->
    let acc = ref [] in
    for r = t.n - 1 downto 0 do
      if h.dead.(r) then acc := r :: !acc
    done;
    !acc

let detector t = match t.heal with Some h -> Some h.det | None -> None
let restarts t = match t.heal with Some h -> h.restarts | None -> 0
let evictions t = match t.heal with Some h -> h.evictions | None -> 0

let retire t =
  match t.heal with
  | Some h ->
    stop_detector h;
    (match h.deadline with
     | Some tm ->
       Clock.cancel tm;
       h.deadline <- None
     | None -> ())
  | None -> ()
