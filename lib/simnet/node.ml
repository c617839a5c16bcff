type t = {
  id : int;
  uid : int;
  name : string;
  sim : Engine.Sim.t;
  clock : Engine.Clock.t;
  mutable busy_until : int;
  mutable up : bool;
  mutable state_watchers : (bool -> unit) list;
  mutable heard_watchers : (int -> unit) list;
}

let next_uid = ref 0

let create ?clock sim ~id ~name =
  let clock =
    match clock with Some c -> c | None -> Engine.Sim.clock sim
  in
  incr next_uid;
  { id; uid = !next_uid; name; sim; clock; busy_until = 0; up = true;
    state_watchers = []; heard_watchers = [] }

let id t = t.id
let uid t = t.uid
let name t = t.name
let sim t = t.sim
let clock t = t.clock

let cpu_async t cost k =
  assert (cost >= 0);
  if Engine.Clock.is_virtual t.clock then begin
    let now = Engine.Sim.now t.sim in
    let start = if t.busy_until > now then t.busy_until else now in
    let finish = start + cost in
    t.busy_until <- finish;
    Engine.Sim.at t.sim finish k
  end
  else
    (* Wall clock: modelled CPU costs are not charged — real host time is
       the measurement. Keep the deferral so callback ordering (queue, then
       run) matches the simulated path. *)
    Engine.Clock.after t.clock 0 k

let cpu t cost =
  Engine.Proc.suspend (fun resume -> cpu_async t cost (fun () -> resume ()))

let cpu_busy_until t = t.busy_until

let is_up t = t.up

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    List.iter (fun f -> f up) t.state_watchers
  end

let on_state t f = t.state_watchers <- f :: t.state_watchers

let on_heard t f =
  (* a fresh closure: its identity is the subscription *)
  let w src = f src in
  t.heard_watchers <- w :: t.heard_watchers;
  fun () -> t.heard_watchers <- List.filter (fun g -> g != w) t.heard_watchers

let heard t ~src =
  match t.heard_watchers with
  | [] -> ()
  | ws -> List.iter (fun f -> f src) ws

let spawn t ?name f =
  let name =
    match name with Some n -> t.name ^ "/" ^ n | None -> t.name ^ "/proc"
  in
  Engine.Proc.spawn_on t.clock ~name f

let pp fmt t = Format.fprintf fmt "%s#%d" t.name t.id
