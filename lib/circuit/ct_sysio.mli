(** Cross-paradigm Circuit adapter: parallel interface over distributed
    hardware (TCP through SysIO). Message boundaries are restored with a
    length-prefixed framing; connections are opened lazily per link and
    accepted on a per-circuit port (the same on every member). One shared
    adapter per bound stack; a peer's queue and connection exist only
    once something was sent to it. *)

val bind :
  Ct.t ->
  Netaccess.Sysio.t ->
  Netaccess.Sysio.stack ->
  port:int ->
  ranks:int list ->
  unit

val adapter_name : string
