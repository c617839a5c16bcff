module Sim = Engine.Sim
module Clock = Engine.Clock
module Proc = Engine.Proc
module Stats = Engine.Stats
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "netaccess.core"

module Log = (val Logs.src_log log : Logs.LOG)

type kind = Madio_work | Sysio_work

type prio = Normal | Low

type quanta = { madio_quantum : int; sysio_quantum : int }

type adaptive = {
  ewma_weight : float;
  min_quantum : int;
  max_quantum : int;
  idle_backoff : bool;
  max_scan_gap : int;
  latency_boost : bool;
}

type policy = Static of quanta | Adaptive of adaptive

let default_quanta = { madio_quantum = 4; sysio_quantum = 4 }

let default_policy = Static default_quanta

let default_adaptive =
  { ewma_weight = 0.25; min_quantum = 1; max_quantum = 64;
    idle_backoff = true; max_scan_gap = 64; latency_boost = true }

type item = { work : unit -> unit; posted_at : int }

(* An explicit readiness source (one per watched edge connection): events
   accumulate at the source, and the source enqueues itself on the ready
   list at most once ([s_queued]) until drained. Idle sources are simply
   absent from the list, so a dispatch round costs nothing per idle
   connection — the O(watched)-scan replacement. *)
type source = {
  src_id : int;
  mutable s_queued : bool; (* on the ready list right now *)
  mutable s_live : bool; (* false once unregistered *)
  s_drain : unit -> unit; (* deliver every pending event; non-blocking *)
}

type queue_state = {
  kname : string;
  items : item Queue.t;
  deferred : item Queue.t; (* Low-prio items parked while overloaded *)
  mutable qhigh : int; (* defer/shed above this depth *)
  mutable qlow : int; (* re-admit deferred work at/below this depth *)
  mutable peak : int;
  count : Stats.Counter.t; (* dispatched *)
  wait : Stats.Summary.t; (* queueing time per item, ns *)
  deferred_c : Stats.Counter.t;
  shed_c : Stats.Counter.t;
  mutable ewma : float; (* useful work per round (adaptive policy) *)
}

type t = {
  dnode : Simnet.Node.t;
  clk : Clock.t;
  mutable pol : policy;
  madio : queue_state;
  sysio : queue_state;
  mutable waker : (unit -> unit) option; (* resumes the idle dispatcher *)
  (* Adaptive-policy state. [sysio_interest] counts registered event
     sources (watched sockets, listeners, UDP binds): with none, there is
     nothing a SysIO scan could discover and the scan machinery is moot. *)
  mutable sysio_interest : int;
  mutable scan_gap : int; (* rounds between idle SysIO scans (backoff) *)
  mutable rounds_since_scan : int;
  polls_busy : Stats.Counter.t; (* scans with readiness events pending *)
  polls_idle : Stats.Counter.t; (* charged scans that found nothing *)
  polls_saved : Stats.Counter.t; (* idle scans elided by the backoff *)
  (* Readiness sources. Empty unless [Sysio] edge mode registered some:
     the dispatcher round then never touches it. *)
  ready : source Queue.t;
  mutable next_src : int;
  mutable nsources : int;
  ready_drains : Stats.Counter.t; (* sources drained *)
  ready_polls : Stats.Counter.t; (* rounds that paid the ready-list poll *)
}

let dispatchers : (int, t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset dispatchers)

let node t = t.dnode

let set_policy t p =
  (match p with
   | Static q ->
     if q.madio_quantum < 1 || q.sysio_quantum < 1 then
       invalid_arg "Na_core.set_policy: quanta must be >= 1"
   | Adaptive a ->
     if not (a.ewma_weight > 0.0 && a.ewma_weight <= 1.0) then
       invalid_arg "Na_core.set_policy: ewma_weight must be in (0, 1]";
     if a.min_quantum < 1 || a.max_quantum < a.min_quantum then
       invalid_arg "Na_core.set_policy: need 1 <= min_quantum <= max_quantum";
     if a.max_scan_gap < 1 then
       invalid_arg "Na_core.set_policy: max_scan_gap must be >= 1");
  t.pol <- p;
  t.scan_gap <- 1;
  t.rounds_since_scan <- 0;
  t.madio.ewma <- 0.0;
  t.sysio.ewma <- 0.0

let policy t = t.pol

let qstate t = function Madio_work -> t.madio | Sysio_work -> t.sysio

let set_admission t kind ~high ~low =
  if high < 1 || low < 0 || low > high then
    invalid_arg "Na_core.set_admission: need 0 <= low <= high, high >= 1";
  let q = qstate t kind in
  q.qhigh <- high;
  q.qlow <- low

let flow t action q =
  if Trace.on () then
    Trace.instant t.dnode
      (Padico_obs.Event.Flow
         { action; place = "na." ^ q.kname; bytes = Queue.length q.items })

(* Move parked low-priority work back to the live queue once the backlog
   has drained to the low watermark. *)
let readmit t q =
  if (not (Queue.is_empty q.deferred)) && Queue.length q.items <= q.qlow
  then begin
    while
      (not (Queue.is_empty q.deferred)) && Queue.length q.items < q.qhigh
    do
      Queue.push (Queue.pop q.deferred) q.items
    done;
    flow t "resume" q
  end

let run_item t q =
  match Queue.take_opt q.items with
  | None -> false
  | Some { work; posted_at } ->
    Stats.Counter.incr q.count;
    let queued_ns = Clock.now t.clk - posted_at in
    Stats.Summary.add q.wait (float_of_int queued_ns);
    (* The span covers the queueing interval: posted -> dispatched. *)
    if Trace.on () then
      Trace.complete t.dnode ~since:posted_at
        (Padico_obs.Event.Dispatch { kind = q.kname; queued_ns });
    (try work ()
     with e ->
       Log.err (fun m ->
           m "%s: dispatched handler raised %s"
             (Simnet.Node.name t.dnode)
             (Printexc.to_string e)));
    true

let sched_event t action subsystem value =
  if Trace.on () then
    Trace.instant t.dnode (Padico_obs.Event.Sched { action; subsystem; value })

(* Activity-driven quantum: track an EWMA of the useful work each
   subsystem yields per round and size its quantum to ~1.5x that, so a
   busy subsystem earns longer bursts (better batching) while an idle one
   shrinks back to [min_quantum] (better latency for the other side). *)
let quantum_of a ewma =
  let q = int_of_float (Float.ceil (ewma *. 1.5)) in
  max a.min_quantum (min a.max_quantum q)

let update_ewma a q drained =
  q.ewma <-
    (a.ewma_weight *. float_of_int drained)
    +. ((1.0 -. a.ewma_weight) *. q.ewma)

(* One charged select()-style pass over registered-but-quiet sockets.
   Only the adaptive policy models these: the legacy static path never
   scans an empty queue, exactly as before this scheduler existed. *)
let charge_idle_scan t a =
  Stats.Counter.incr t.polls_idle;
  sched_event t "scan" "sysio" t.scan_gap;
  Simnet.Node.cpu t.dnode Calib.sysio_poll_ns;
  t.rounds_since_scan <- 0;
  if a.idle_backoff then begin
    let g = min (t.scan_gap * 2) a.max_scan_gap in
    if g <> t.scan_gap then begin
      t.scan_gap <- g;
      sched_event t "backoff" "sysio" g
    end
  end

(* One adaptive interleaving round: MadIO first (SAN latency priority),
   then SysIO — a charged productive poll when readiness events are
   pending, otherwise the exponentially backed-off idle scan. *)
let adaptive_round t a =
  if not (Queue.is_empty t.madio.items) then begin
    let base = quantum_of a t.madio.ewma in
    let mq =
      if a.latency_boost then begin
        (* Latency-priority boost: pending SAN traffic drains entirely
           this round rather than waiting out extra rounds' poll costs. *)
        let pending = Queue.length t.madio.items in
        if pending > base then begin
          sched_event t "boost" "madio" pending;
          pending
        end
        else base
      end
      else base
    in
    let rec go k = if k < mq && run_item t t.madio then go (k + 1) else k in
    update_ewma a t.madio (go 0)
  end
  else update_ewma a t.madio 0;
  if not (Queue.is_empty t.sysio.items) then begin
    if Trace.on () then
      Trace.instant t.dnode (Padico_obs.Event.Poll { kind = "sysio" });
    Stats.Counter.incr t.polls_busy;
    Simnet.Node.cpu t.dnode Calib.sysio_poll_ns;
    let sq = quantum_of a t.sysio.ewma in
    let rec go k = if k < sq && run_item t t.sysio then go (k + 1) else k in
    update_ewma a t.sysio (go 0);
    (* A productive scan resets the backoff: the socket side is live. *)
    t.scan_gap <- 1;
    t.rounds_since_scan <- 0
  end
  else if t.sysio_interest > 0 then begin
    update_ewma a t.sysio 0;
    t.rounds_since_scan <- t.rounds_since_scan + 1;
    if t.rounds_since_scan >= t.scan_gap then charge_idle_scan t a
    else Stats.Counter.incr t.polls_saved
  end

(* Drain the ready list: one charged poll pass per round with readiness
   pending (the epoll_wait), then up to the SysIO quantum of sources. A
   source is popped and its queued flag cleared {e before} its drain runs,
   so events arriving mid-drain re-enqueue it — no lost wakeups; the flag
   guarantees at most one list entry per source — no duplicate dispatch.
   Idle sources are not on the list and cost nothing here. *)
let drain_ready t =
  if not (Queue.is_empty t.ready) then begin
    Stats.Counter.incr t.ready_polls;
    if Trace.on () then
      Trace.instant t.dnode (Padico_obs.Event.Poll { kind = "sysio" });
    Simnet.Node.cpu t.dnode Calib.sysio_poll_ns;
    let budget =
      match t.pol with
      | Static q -> q.sysio_quantum
      | Adaptive a -> max a.min_quantum (quantum_of a t.sysio.ewma)
    in
    let rec go k =
      if k < budget then
        match Queue.take_opt t.ready with
        | None -> ()
        | Some s ->
          s.s_queued <- false;
          if s.s_live then begin
            Stats.Counter.incr t.ready_drains;
            (try s.s_drain ()
             with e ->
               Log.err (fun m ->
                   m "%s: ready-source drain raised %s"
                     (Simnet.Node.name t.dnode)
                     (Printexc.to_string e)));
            go (k + 1)
          end
          else go k (* dead source: free slot, no charge *)
    in
    go 0
  end

(* The unique receipt loop: alternate between the two subsystems according
   to the policy, then sleep until new work is posted. *)
let dispatcher_loop t () =
  let rec wait_for_work () =
    readmit t t.madio;
    readmit t t.sysio;
    if
      Queue.is_empty t.madio.items
      && Queue.is_empty t.sysio.items
      && Queue.is_empty t.ready
    then begin
      Proc.suspend (fun resume -> t.waker <- Some resume);
      wait_for_work ()
    end
  in
  while true do
    wait_for_work ();
    (* One interleaving round. Scanning the socket subsystem costs a poll
       pass (select()-like); MadIO completion polling is cheap and charged
       inside the MadIO costs, keeping the MadIO-over-Madeleine overhead at
       its measured < 0.1 us. *)
    (match t.pol with
     | Static pol ->
       let rec drain q n = if n > 0 && run_item t q then drain q (n - 1) in
       if not (Queue.is_empty t.madio.items) then
         drain t.madio pol.madio_quantum;
       if not (Queue.is_empty t.sysio.items) then begin
         if Trace.on () then
           Trace.instant t.dnode (Padico_obs.Event.Poll { kind = "sysio" });
         Simnet.Node.cpu t.dnode Calib.sysio_poll_ns;
         drain t.sysio pol.sysio_quantum
       end
     | Adaptive a -> adaptive_round t a);
    drain_ready t;
    readmit t t.madio;
    readmit t t.sysio;
    (* Yield so co-located processes make progress between rounds. *)
    Proc.yield_on t.clk
  done

let make_queue node kname =
  let scope = Metrics.Node (Simnet.Node.name node) in
  let q =
    { kname; items = Queue.create (); deferred = Queue.create ();
      qhigh = max_int; qlow = max_int; peak = 0;
      count = Metrics.fresh_counter scope ("na." ^ kname ^ ".dispatched");
      wait = Metrics.fresh_summary scope ("na." ^ kname ^ ".wait_ns");
      deferred_c = Metrics.fresh_counter scope ("na." ^ kname ^ ".deferred");
      shed_c = Metrics.fresh_counter scope ("na." ^ kname ^ ".shed");
      ewma = 0.0 }
  in
  Metrics.gauge scope ("na." ^ kname ^ ".depth") (fun () ->
      float_of_int (Queue.length q.items));
  Metrics.gauge scope ("na." ^ kname ^ ".depth_peak") (fun () ->
      float_of_int q.peak);
  q

let get dnode =
  let id = Simnet.Node.uid dnode in
  match Hashtbl.find_opt dispatchers id with
  | Some t -> t
  | None ->
    let scope = Metrics.Node (Simnet.Node.name dnode) in
    let t =
      { dnode; clk = Simnet.Node.clock dnode; pol = default_policy;
        madio = make_queue dnode "madio";
        sysio = make_queue dnode "sysio";
        waker = None;
        sysio_interest = 0; scan_gap = 1; rounds_since_scan = 0;
        polls_busy = Metrics.fresh_counter scope "na.sysio.polls_busy";
        polls_idle = Metrics.fresh_counter scope "na.sysio.polls_idle";
        polls_saved = Metrics.fresh_counter scope "na.sysio.polls_saved";
        ready = Queue.create (); next_src = 0; nsources = 0;
        ready_drains = Metrics.fresh_counter scope "na.ready.drains";
        ready_polls = Metrics.fresh_counter scope "na.ready.polls" }
    in
    Metrics.gauge scope "na.ready.depth" (fun () ->
        float_of_int (Queue.length t.ready));
    Metrics.gauge scope "na.ready.sources" (fun () ->
        float_of_int t.nsources);
    Metrics.gauge scope "na.sched.scan_gap" (fun () ->
        float_of_int t.scan_gap);
    Metrics.gauge scope "na.madio.work_ewma" (fun () -> t.madio.ewma);
    Metrics.gauge scope "na.sysio.work_ewma" (fun () -> t.sysio.ewma);
    Hashtbl.replace dispatchers id t;
    ignore (Simnet.Node.spawn dnode ~name:"netaccess" (dispatcher_loop t));
    t

let wake t =
  match t.waker with
  | Some resume ->
    t.waker <- None;
    resume ()
  | None -> ()

let admit t q item =
  Queue.push item q.items;
  if Queue.length q.items > q.peak then q.peak <- Queue.length q.items;
  wake t

let post ?(prio = Normal) t kind work =
  let q = qstate t kind in
  let item = { work; posted_at = Clock.now t.clk } in
  match prio with
  | Low when Queue.length q.items >= q.qhigh ->
    (* Overloaded: park the item rather than let the backlog grow. It runs
       once the live queue drains to the low watermark; meanwhile the
       producer behind it (a socket's receive buffer, say) fills up and
       pushes back on the wire. *)
    Queue.push item q.deferred;
    Stats.Counter.incr q.deferred_c;
    flow t "defer" q
  | Normal | Low -> admit t q item

let post_droppable t kind work =
  let q = qstate t kind in
  if Queue.length q.items >= q.qhigh then begin
    Stats.Counter.incr q.shed_c;
    flow t "shed" q;
    false
  end
  else begin
    admit t q { work; posted_at = Clock.now t.clk };
    true
  end

let dispatched t kind = Stats.Counter.value (qstate t kind).count

let queue_depth t kind = Queue.length (qstate t kind).items

let deferred_depth t kind = Queue.length (qstate t kind).deferred

let queue_peak t kind = (qstate t kind).peak

let shed_count t kind = Stats.Counter.value (qstate t kind).shed_c

let deferred_count t kind = Stats.Counter.value (qstate t kind).deferred_c

let mean_wait_ns t kind =
  let q = qstate t kind in
  if Stats.Summary.n q.wait = 0 then 0.0 else Stats.Summary.mean q.wait

(* -- adaptive-policy observability / SysIO interest --------------------- *)

let add_sysio_interest t n =
  t.sysio_interest <- max 0 (t.sysio_interest + n);
  if t.sysio_interest = n && n > 0 then
    (* First interest: start scanning eagerly again. *)
    t.scan_gap <- 1

let sysio_interest t = t.sysio_interest

let polls_busy t = Stats.Counter.value t.polls_busy

let polls_idle t = Stats.Counter.value t.polls_idle

let polls_saved t = Stats.Counter.value t.polls_saved

let scan_gap t = t.scan_gap

let work_ewma t kind = (qstate t kind).ewma

(* -- readiness sources --------------------------------------------------- *)

let register_source t ~drain =
  let s =
    { src_id = t.next_src; s_queued = false; s_live = true; s_drain = drain }
  in
  t.next_src <- t.next_src + 1;
  t.nsources <- t.nsources + 1;
  s

let unregister_source t s =
  if s.s_live then begin
    s.s_live <- false;
    t.nsources <- t.nsources - 1
    (* A queued entry stays on the list and is skipped (uncharged) at the
       next drain — O(1) unregister, like an epoll interest removal. *)
  end

let mark_ready t s =
  if s.s_live && not s.s_queued then begin
    s.s_queued <- true;
    Queue.push s t.ready;
    wake t
  end

let source_live s = s.s_live

let ready_depth t = Queue.length t.ready

let source_count t = t.nsources

let ready_drains t = Stats.Counter.value t.ready_drains

let ready_polls t = Stats.Counter.value t.ready_polls

let current_quantum t kind =
  match t.pol with
  | Static q ->
    (match kind with
     | Madio_work -> q.madio_quantum
     | Sysio_work -> q.sysio_quantum)
  | Adaptive a -> quantum_of a (qstate t kind).ewma
