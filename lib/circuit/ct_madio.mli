(** Straight Circuit adapter: parallel interface on parallel hardware,
    through MadIO's logical multiplexing. One MadIO logical channel per
    circuit; one shared adapter per bound channel. *)

val bind :
  Ct.t -> Netaccess.Madio.t -> lchannel_id:int -> ranks:int list -> unit
(** Bind the links towards [ranks] to this MadIO instance, and register the
    circuit's receive path on logical channel [lchannel_id] (which must be
    the same on every member). All [ranks] must be reachable on the MadIO
    segment. *)

val adapter_name : string
