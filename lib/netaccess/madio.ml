module Bytebuf = Engine.Bytebuf
module Sim = Engine.Sim
module Mad = Madeleine.Mad
module Stats = Engine.Stats
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "netaccess.madio"

module Log = (val Logs.src_log log : Logs.LOG)

let magic = 0xAD10

(* Small-message aggregation configuration (see {!set_aggregation}). *)
type agg_cfg = {
  agg_threshold : int; (* messages strictly smaller coalesce *)
  agg_budget_ns : int; (* max queueing delay before a forced flush *)
  agg_max_batch : int; (* cap on batched payload+sublength bytes *)
}

(* One pending coalescing batch for a (peer, logical channel) flow. *)
type batch = {
  b_dst : int;
  b_lchan : int;
  mutable b_parts : (Bytebuf.t list * int) list; (* (iov, len), newest first *)
  mutable b_bytes : int; (* payload bytes queued *)
  mutable b_count : int;
  mutable b_epoch : int; (* bumps on flush; stale budget timers no-op *)
}

type lchannel = {
  owner : t;
  id : int;
  mutable recv : (src:int -> Bytebuf.t -> unit) option;
  mutable open_ : bool;
  mutable manual_grant : bool;
  pending_rx : (int * Bytebuf.t) Queue.t;
      (* Messages that arrived on the open channel before [set_recv]
         installed a receiver — dispatch order is arbitrated, so a peer's
         first message can overtake the local registration. Flushed, in
         order, when the receiver appears. *)
}

and t = {
  mio_mad : Mad.t;
  mio_node : Simnet.Node.t;
  core : Na_core.t;
  hw_chan : Mad.channel;
  lchannels : (int, lchannel) Hashtbl.t;
  (* In separate-header mode a header message announces the next payload
     message from the same source. *)
  pending_header : (int, int) Hashtbl.t; (* src -> logical channel *)
  mutable combining : bool;
  (* Credit-based flow control (0 = disabled). Credits count payload
     bytes per (peer, logical channel) flow; grants ride in the combined
     header, so steady bidirectional traffic pays zero extra messages. *)
  mutable window : int;
  credits : (int * int, int ref) Hashtbl.t; (* (dst, lchan) -> sendable *)
  grants : (int * int, int ref) Hashtbl.t; (* (src, lchan) -> ungranted *)
  credit_waiters : (int * int, (int * (unit -> unit)) Queue.t) Hashtbl.t;
      (* (min space required, one-shot callback) *)
  (* Small-message aggregation (None = disabled, the default). *)
  mutable agg : agg_cfg option;
  aggq : (int * int, batch) Hashtbl.t; (* (dst, lchan) -> pending batch *)
  sent : Stats.Counter.t;
  received : Stats.Counter.t;
  credit_msgs : Stats.Counter.t;
  credit_stalls : Stats.Counter.t;
  batched : Stats.Counter.t; (* messages that went through a batch *)
  batches : Stats.Counter.t; (* flushes (wire packets for batched msgs) *)
  pkts_saved : Stats.Counter.t; (* packets avoided: sum of (count - 1) *)
}

let instances : (int * int, t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset instances)

let node t = t.mio_node
let mad t = t.mio_mad

let header_len = Calib.madio_header_bytes

(* Header layout (14 bytes): magic u16 | lchannel u16 | length u32 |
   combined u8 | credit u32 | count u8. [count] is the aggregation
   sub-message count: 0 (and 1) mean a plain single-message payload —
   the pre-aggregation wire format, whose count byte was the spare zero
   byte — while count >= 2 announces a batch of [u16 sublen | bytes]
   records. Pooled headers come back dirty, so every byte is written
   explicitly here. *)
let encode_header ?(pooled = false) ~lchan ~len ~combined ~credit ~count () =
  let h =
    if pooled then Bytebuf.Pool.alloc header_len
    else Bytebuf.create header_len
  in
  Bytebuf.set_u16 h 0 magic;
  Bytebuf.set_u16 h 2 lchan;
  Bytebuf.set_u32 h 4 len;
  Bytebuf.set_u8 h 8 (if combined then 1 else 0);
  Bytebuf.set_u32 h 9 credit;
  Bytebuf.set_u8 h 13 count;
  h

(* -- credit bookkeeping ------------------------------------------------- *)

let enabled t = t.window > 0

let cell tbl key ~init =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref init in
    Hashtbl.replace tbl key r;
    r

(* Sender-side balance for the flow to [dst] on [lchan]; starts at the
   local window (configurations are assumed symmetric). *)
let credit_cell t ~dst ~lchan = cell t.credits (dst, lchan) ~init:t.window

let grant_cell t ~src ~lchan = cell t.grants (src, lchan) ~init:0

let flow_event t action ~lchan bytes =
  if Trace.on () then
    Trace.instant t.mio_node
      (Padico_obs.Event.Flow
         { action; place = Printf.sprintf "madio.lchan%d" lchan; bytes })

(* Take the accumulated grant for the reverse flow, to piggyback it on an
   outgoing header. *)
let take_grant t ~dst ~lchan =
  if not (enabled t) then 0
  else begin
    let g = grant_cell t ~src:dst ~lchan in
    let v = !g in
    g := 0;
    v
  end

let credit_arrived t ~src ~lchan n =
  if n > 0 && enabled t then begin
    let c = credit_cell t ~dst:src ~lchan in
    c := !c + n;
    flow_event t "credit.grant" ~lchan n;
    match Hashtbl.find_opt t.credit_waiters (src, lchan) with
    | None -> ()
    | Some q ->
      (* One-shot waiters: run those whose space threshold is now met
         (re-registration re-checks); keep the rest parked — waking a
         waiter below its threshold would spin it in a notify loop. *)
      let keep = Queue.create () in
      while not (Queue.is_empty q) do
        let ((min_space, f) as w) = Queue.pop q in
        if !c >= min_space then f () else Queue.push w keep
      done;
      Queue.transfer keep q
  end

(* -- small-message aggregation ------------------------------------------ *)

let agg_event t action ~lchan ~msgs ~bytes =
  if Trace.on () then
    Trace.instant t.mio_node
      (Padico_obs.Event.Agg { action; lchannel = lchan; msgs; bytes })

(* Emit one combined-header message. [count] is the header's sub-message
   count: 0 = plain single message (legacy wire format), >= 2 = batch.
   When a payload follows, the header rides in a pooled slab: the payload
   pieces in the same driver fragment force the gather copy, so the slab
   is dead at send completion and reclaimed in [on_tx]. A payload-less
   header (credit-only) would travel by reference, so it takes a fresh
   buffer instead. *)
let emit_combined t ~lchan ~dst ~len ~credit ~count iov =
  let pooled = len > 0 in
  let hdr =
    encode_header ~pooled ~lchan ~len ~combined:true ~credit ~count ()
  in
  let out = Mad.begin_packing t.hw_chan ~dst in
  Mad.pack out hdr;
  List.iter (Mad.pack out) iov;
  Simnet.Node.cpu_async t.mio_node Calib.madio_combined_ns (fun () -> ());
  if pooled then (
    try Mad.end_packing ~on_tx:(fun () -> Bytebuf.Pool.release hdr) out
    with e ->
      Bytebuf.Pool.release hdr;
      raise e)
  else Mad.end_packing out

let batch_cell t ~dst ~lchan =
  match Hashtbl.find_opt t.aggq (dst, lchan) with
  | Some b -> b
  | None ->
    let b =
      { b_dst = dst; b_lchan = lchan; b_parts = []; b_bytes = 0;
        b_count = 0; b_epoch = 0 }
    in
    Hashtbl.replace t.aggq (dst, lchan) b;
    b

(* Push a pending batch onto the wire as one Madeleine packet. A batch of
   one degenerates to the legacy single-message format — aggregation only
   changes the wire format when it actually saves a packet. Any grant
   accumulated for the reverse flow rides the batch header for free. *)
let flush_batch t b ~reason =
  if b.b_count > 0 then begin
    let parts = List.rev b.b_parts in
    let count = b.b_count and bytes = b.b_bytes in
    b.b_parts <- [];
    b.b_count <- 0;
    b.b_bytes <- 0;
    b.b_epoch <- b.b_epoch + 1;
    let lchan = b.b_lchan and dst = b.b_dst in
    agg_event t ("flush." ^ reason) ~lchan ~msgs:count ~bytes;
    Stats.Counter.incr t.batches;
    let credit = take_grant t ~dst ~lchan in
    try
      if count = 1 then begin
        let iov, len = List.hd parts in
        emit_combined t ~lchan ~dst ~len ~credit ~count:0 iov
      end
      else begin
        let total = bytes + (2 * count) in
        let hdr =
          encode_header ~pooled:true ~lchan ~len:total ~combined:true
            ~credit ~count ()
        in
        let subs = Bytebuf.Pool.alloc (2 * count) in
        let out = Mad.begin_packing t.hw_chan ~dst in
        Mad.pack out hdr;
        List.iteri
          (fun i (iov, len) ->
             let p = Bytebuf.sub subs (2 * i) 2 in
             Bytebuf.set_u16 p 0 len;
             Mad.pack out p;
             List.iter (Mad.pack out) iov)
          parts;
        Simnet.Node.cpu_async t.mio_node
          (Calib.madio_combined_ns + (count * Calib.madio_agg_permsg_ns))
          (fun () -> ());
        (try
           Mad.end_packing
             ~on_tx:(fun () ->
                 Bytebuf.Pool.release hdr;
                 Bytebuf.Pool.release subs)
             out
         with e ->
           Bytebuf.Pool.release hdr;
           Bytebuf.Pool.release subs;
           raise e);
        Stats.Counter.add t.pkts_saved (count - 1)
      end
    with Mad.Link_down _ ->
      (* Fail-fast SAN semantics: the batch is dropped wholesale, exactly
         like a message in flight when the carrier drops; the link watcher
         tears down the users above. *)
      ()
  end

let flush_pending t ~dst ~lchan ~reason =
  match Hashtbl.find_opt t.aggq (dst, lchan) with
  | Some b -> flush_batch t b ~reason
  | None -> ()

let flush_all t =
  Hashtbl.iter (fun _ b -> flush_batch t b ~reason:"explicit") t.aggq

(* Queue the accumulated grant and flush it explicitly when it gets large.
   Normally grants piggyback on reverse traffic for free; the explicit
   credit-only message (no payload) is the fallback for one-way flows, sent
   at half-window so the sender never quite runs dry. *)
let rec add_grant t lc ~src n =
  if n > 0 && enabled t then begin
    let g = grant_cell t ~src ~lchan:lc.id in
    g := !g + n;
    if !g >= t.window / 2 then send_credit_only t lc ~dst:src
  end

and send_credit_only t lc ~dst =
  match Hashtbl.find_opt t.aggq (dst, lc.id) with
  | Some b when b.b_count > 0 ->
    (* A pending batch is the cheapest vehicle: the grant rides its
       combined header, costing zero extra messages. *)
    flush_batch t b ~reason:"credit"
  | _ ->
    let credit = take_grant t ~dst ~lchan:lc.id in
    if credit > 0 then begin
      Stats.Counter.incr t.credit_msgs;
      let out = Mad.begin_packing t.hw_chan ~dst in
      Mad.pack out
        (encode_header ~lchan:lc.id ~len:0 ~combined:true ~credit ~count:0 ());
      Simnet.Node.cpu_async t.mio_node Calib.madio_combined_ns (fun () -> ());
      Mad.end_packing out
    end

let deliver t ~src ~lchan payload =
  match Hashtbl.find_opt t.lchannels lchan with
  | None ->
    Log.warn (fun m ->
        m "%s: message for closed logical channel %d dropped"
          (Simnet.Node.name t.mio_node) lchan)
  | Some lc ->
    Stats.Counter.incr t.received;
    if Trace.on () then
      Trace.instant t.mio_node
        (Padico_obs.Event.Madio_recv
           { lchannel = lchan; bytes = Bytebuf.length payload });
    (match lc.recv with
     | Some f ->
       (* Arbitrated delivery: through the NetAccess dispatcher. In the
          default (automatic) grant mode the credit returns once the
          dispatcher has drained the message — so a backed-up dispatcher
          withholds credit and stalls the sender. Manual-grant channels
          (vl_madio) return credit themselves as the application reads. *)
       Na_core.post t.core Na_core.Madio_work (fun () ->
           f ~src payload;
           if not lc.manual_grant then
             add_grant t lc ~src (Bytebuf.length payload))
     | None -> Queue.push (src, payload) lc.pending_rx)

let handle_incoming t inc =
  let src = Mad.incoming_src inc in
  match Hashtbl.find_opt t.pending_header src with
  | Some lchan ->
    (* Separate-header mode: this whole message is the announced payload. *)
    Hashtbl.remove t.pending_header src;
    let payload = Mad.unpack inc (Mad.remaining inc) in
    Simnet.Node.cpu_async t.mio_node Calib.madio_separate_ns (fun () ->
        deliver t ~src ~lchan payload)
  | None ->
    let h = Mad.unpack inc ~mode:Mad.Receive_express header_len in
    if Bytebuf.get_u16 h 0 <> magic then
      Log.err (fun m -> m "MadIO: bad header magic, message dropped")
    else begin
      let lchan = Bytebuf.get_u16 h 2 in
      let len = Bytebuf.get_u32 h 4 in
      let combined = Bytebuf.get_u8 h 8 = 1 in
      credit_arrived t ~src ~lchan (Bytebuf.get_u32 h 9);
      if combined then begin
        if len = 0 then
          (* Credit-only message: the header already did its job. *)
          ()
        else begin
          let count = Bytebuf.get_u8 h 13 in
          let payload = Mad.unpack inc len in
          if count <= 1 then
            Simnet.Node.cpu_async t.mio_node Calib.madio_combined_ns (fun () ->
                deliver t ~src ~lchan payload)
          else
            (* Aggregated batch: walk the [u16 sublen | bytes] records,
               delivering zero-copy sub-slices of the one reassembled
               payload, in their queueing order. *)
            Simnet.Node.cpu_async t.mio_node
              (Calib.madio_combined_ns + (count * Calib.madio_agg_permsg_ns))
              (fun () ->
                 let pos = ref 0 in
                 let ok = ref true in
                 for _ = 1 to count do
                   if !ok then
                     if !pos + 2 > len then ok := false
                     else begin
                       let sl = Bytebuf.get_u16 payload !pos in
                       if !pos + 2 + sl > len then ok := false
                       else begin
                         deliver t ~src ~lchan
                           (Bytebuf.sub payload (!pos + 2) sl);
                         pos := !pos + 2 + sl
                       end
                     end
                 done;
                 if not !ok then
                   Log.err (fun m ->
                       m "MadIO: malformed aggregated batch from %d dropped"
                         src))
        end
      end
      else
        (* Header-only message: remember which channel the next message
           from this source belongs to. *)
        Hashtbl.replace t.pending_header src lchan
    end

(* The buffer pool is process-global; register its reuse gauges once. *)
let pool_metrics_registered = ref false

let init m =
  let key = (Simnet.Node.uid (Mad.node m), Simnet.Segment.uid (Mad.segment m)) in
  match Hashtbl.find_opt instances key with
  | Some t -> t
  | None ->
    let hw_chan = Mad.open_channel m ~id:0 in
    let scope = Metrics.Node (Simnet.Node.name (Mad.node m)) in
    let t =
      { mio_mad = m; mio_node = Mad.node m; core = Na_core.get (Mad.node m);
        hw_chan; lchannels = Hashtbl.create 16;
        pending_header = Hashtbl.create 4; combining = true;
        window = 0; credits = Hashtbl.create 8; grants = Hashtbl.create 8;
        credit_waiters = Hashtbl.create 8;
        agg = None; aggq = Hashtbl.create 8;
        sent = Metrics.fresh_counter scope "madio.sent";
        received = Metrics.fresh_counter scope "madio.received";
        credit_msgs = Metrics.fresh_counter scope "madio.credit_msgs";
        credit_stalls = Metrics.fresh_counter scope "madio.credit_stalls";
        batched = Metrics.fresh_counter scope "madio.agg_messages";
        batches = Metrics.fresh_counter scope "madio.agg_batches";
        pkts_saved = Metrics.fresh_counter scope "madio.agg_packets_saved" }
    in
    if not !pool_metrics_registered then begin
      pool_metrics_registered := true;
      Metrics.gauge Metrics.Global "bytebuf.pool_hits" (fun () ->
          float_of_int (Bytebuf.Pool.pool_hits ()));
      Metrics.gauge Metrics.Global "bytebuf.pool_misses" (fun () ->
          float_of_int (Bytebuf.Pool.pool_misses ()))
    end;
    Mad.set_recv hw_chan (fun inc -> handle_incoming t inc);
    Hashtbl.replace instances key t;
    t

let open_lchannel t ~id =
  if id < 0 || id > 0xffff then invalid_arg "Madio.open_lchannel: bad id";
  if Hashtbl.mem t.lchannels id then
    invalid_arg
      (Printf.sprintf "Madio.open_lchannel: channel %d already open" id);
  let lc =
    { owner = t; id; recv = None; open_ = true; manual_grant = false;
      pending_rx = Queue.create () }
  in
  Hashtbl.replace t.lchannels id lc;
  lc

let close_lchannel lc =
  if lc.open_ then begin
    let t = lc.owner in
    (* Closing must not strand coalesced messages. *)
    Hashtbl.iter
      (fun _ b -> if b.b_lchan = lc.id then flush_batch t b ~reason:"explicit")
      t.aggq;
    lc.open_ <- false;
    Hashtbl.remove t.lchannels lc.id
  end

let lchannel_id lc = lc.id

let lchannels_open t = Hashtbl.length t.lchannels

let set_recv lc f =
  lc.recv <- Some f;
  let t = lc.owner in
  while not (Queue.is_empty lc.pending_rx) do
    let src, payload = Queue.pop lc.pending_rx in
    Na_core.post t.core Na_core.Madio_work (fun () ->
        f ~src payload;
        if not lc.manual_grant then add_grant t lc ~src (Bytebuf.length payload))
  done

(* Coalesce one sub-threshold message into the flow's pending batch; the
   first message of a batch arms the latency-budget timer. The timer is
   epoch-guarded: a flush for any other reason bumps the epoch, so a
   stale timer firing into a newer batch is a no-op. *)
let queue_batched t lc ~dst iov len a =
  let b = batch_cell t ~dst ~lchan:lc.id in
  if
    b.b_count >= 255
    || (b.b_count > 0
        && b.b_bytes + len + (2 * (b.b_count + 1)) > a.agg_max_batch)
  then flush_batch t b ~reason:"size";
  let first = b.b_count = 0 in
  b.b_parts <- (iov, len) :: b.b_parts;
  b.b_count <- b.b_count + 1;
  b.b_bytes <- b.b_bytes + len;
  Stats.Counter.incr t.batched;
  agg_event t "queue" ~lchan:lc.id ~msgs:b.b_count ~bytes:b.b_bytes;
  if first then begin
    let epoch = b.b_epoch in
    let fire () = if b.b_epoch = epoch then flush_batch t b ~reason:"budget" in
    Sim.after (Simnet.Node.sim t.mio_node) a.agg_budget_ns fire
  end

let sendv lc ~dst iov =
  if not lc.open_ then invalid_arg "Madio.sendv: logical channel closed";
  let t = lc.owner in
  let len = List.fold_left (fun acc b -> acc + Bytebuf.length b) 0 iov in
  Stats.Counter.incr t.sent;
  if Trace.on () then
    Trace.instant t.mio_node
      (Padico_obs.Event.Header
         { lchannel = lc.id; bytes = len; combined = t.combining });
  (* Consume sender credit. Enforcement is soft — sendv itself never
     blocks or fails (control traffic must always get through) — so the
     balance can dip negative; polite bulk senders consult [send_space]
     first and wait on [on_credit]. Batched messages consume credit at
     queueing time: the wire packet may be deferred, the window debt is
     not. *)
  if enabled t then begin
    let c = credit_cell t ~dst ~lchan:lc.id in
    if !c < len then begin
      Stats.Counter.incr t.credit_stalls;
      flow_event t "credit.stall" ~lchan:lc.id (len - !c)
    end;
    c := !c - len
  end;
  match t.agg with
  | Some a when t.combining && len > 0 && len < a.agg_threshold ->
    queue_batched t lc ~dst iov len a
  | agg ->
    (* An over-threshold message flushes the flow's pending batch first,
       so aggregation never reorders messages within a logical channel. *)
    (match agg with
     | Some _ -> flush_pending t ~dst ~lchan:lc.id ~reason:"large"
     | None -> ());
    let credit = take_grant t ~dst ~lchan:lc.id in
    try
      if t.combining then
        (* Header combining: the multiplexing header rides in the first
           packet of the payload message (one Madeleine message, one DMA
           post). *)
        emit_combined t ~lchan:lc.id ~dst ~len ~credit ~count:0 iov
      else begin
        (* Ablation: header as its own message — a full extra message
           through the whole driver stack. *)
        let hdr = Mad.begin_packing t.hw_chan ~dst in
        Mad.pack hdr
          (encode_header ~lchan:lc.id ~len ~combined:false ~credit ~count:0
             ());
        Mad.end_packing hdr;
        let out = Mad.begin_packing t.hw_chan ~dst in
        List.iter (Mad.pack out) iov;
        Simnet.Node.cpu_async t.mio_node Calib.madio_separate_ns
          (fun () -> ());
        Mad.end_packing out
      end
    with Mad.Link_down _ ->
      (* Same fail-fast drop as [flush_batch]: the message vanishes with
         the carrier and the link watcher tears down the users above.
         Without this the exception escapes a scheduler callback and
         aborts the whole run instead of failing one flow. *)
      ()

let send lc ~dst buf = sendv lc ~dst [ buf ]

(* -- credit API --------------------------------------------------------- *)

let set_credit_window t n =
  if n < 0 then invalid_arg "Madio.set_credit_window: negative window";
  t.window <- n;
  Hashtbl.reset t.credits;
  Hashtbl.reset t.grants;
  if n > 0 then begin
    let scope = Metrics.Node (Simnet.Node.name t.mio_node) in
    Metrics.gauge scope "madio.credit_window" (fun () ->
        float_of_int t.window);
    Metrics.gauge scope "madio.send_space_min" (fun () ->
        Hashtbl.fold (fun _ c acc -> Float.min acc (float_of_int !c))
          t.credits (float_of_int t.window))
  end

let credit_window t = t.window

let send_space lc ~dst =
  let t = lc.owner in
  if not (enabled t) then max_int
  else max 0 !(credit_cell t ~dst ~lchan:lc.id)

let on_credit lc ~dst ?(min_space = 1) f =
  if min_space < 1 then invalid_arg "Madio.on_credit: min_space must be >= 1";
  let t = lc.owner in
  if (not (enabled t)) || send_space lc ~dst >= min_space then f ()
  else begin
    let q =
      match Hashtbl.find_opt t.credit_waiters (dst, lc.id) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.credit_waiters (dst, lc.id) q;
        q
    in
    Queue.push (min_space, f) q
  end

let set_manual_grant lc v = lc.manual_grant <- v

let grant lc ~src n =
  if n < 0 then invalid_arg "Madio.grant: negative grant";
  add_grant lc.owner lc ~src n

let credit_stalls t = Stats.Counter.value t.credit_stalls

let credit_messages t = Stats.Counter.value t.credit_msgs

let set_header_combining t v =
  (* Pending batches assume the combined wire format: push them out under
     the format they were queued for before switching. *)
  if not v then flush_all t;
  t.combining <- v

let header_combining t = t.combining

let messages_sent t = Stats.Counter.value t.sent

let messages_received t = Stats.Counter.value t.received

(* -- aggregation API ---------------------------------------------------- *)

let set_aggregation t ?(threshold = Calib.madio_agg_threshold_bytes)
    ?(budget_ns = Calib.madio_agg_budget_ns)
    ?(max_batch = Calib.madio_agg_max_batch_bytes) on =
  if on then begin
    if threshold < 2 || threshold > 0xffff then
      invalid_arg "Madio.set_aggregation: threshold must be in [2, 65535]";
    if budget_ns < 0 then
      invalid_arg "Madio.set_aggregation: negative budget";
    if max_batch < threshold + 2 then
      invalid_arg "Madio.set_aggregation: max_batch must exceed threshold + 2";
    t.agg <-
      Some
        { agg_threshold = threshold; agg_budget_ns = budget_ns;
          agg_max_batch = max_batch }
  end
  else begin
    flush_all t;
    t.agg <- None
  end

let aggregation_enabled t = t.agg <> None

let flush lc ~dst =
  flush_pending lc.owner ~dst ~lchan:lc.id ~reason:"explicit"

let messages_batched t = Stats.Counter.value t.batched

let batches_sent t = Stats.Counter.value t.batches

let packets_saved t = Stats.Counter.value t.pkts_saved
