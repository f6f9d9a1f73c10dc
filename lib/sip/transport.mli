(** Simulated datagram transport (the "kernel" socket).

    Payload strings travel through a host-level queue — invisible to
    the detectors, exactly as the kernel is invisible to Helgrind — and
    a VM semaphore provides blocking receive.  On {!recv} the payload
    is copied into a fresh VM buffer {e by the receiving thread},
    modelling how Valgrind attributes syscall memory effects.

    An optional fault {!Raceguard_faults.Injector} makes the network
    hostile: datagrams (except from the ["admin"] control endpoint) may
    be dropped, duplicated, postponed/reordered or corrupted — all
    deterministically in (seed, plan). *)

type endpoint
type t

(** What happened to a datagram handed to {!send}. *)
type delivery =
  | Delivered  (** reached the destination inbox (possibly twice/mangled) *)
  | Dropped_unroutable
      (** no such endpoint — counted in [sip.transport.dropped_unroutable] *)
  | Dropped_fault  (** an injected drop fault consumed it *)
  | Delayed_fault  (** held back; will be flushed by later transport activity *)

val create : ?faults:Raceguard_faults.Injector.t -> unit -> t

val faults : t -> Raceguard_faults.Injector.t option
(** The injector the transport was created with.  The server's
    allocator consults the same one (allocation-failure faults), so one
    instance drives the whole plan. *)

val endpoint : t -> string -> endpoint
(** Look up or create a named endpoint (call from inside the VM: the
    first call creates its semaphore). *)

val send : t -> src:string -> dst:string -> string -> delivery
(** Datagram send; never silent — the result says what happened. *)

val recv : t -> endpoint -> string * int * int
(** Blocking receive: (source name, VM buffer address, length).  The
    caller owns — and must free — the buffer. *)

val recv_deadline : t -> endpoint -> deadline:int -> (string * int * int) option
(** Receive with an absolute VM-clock deadline; polls so postponed
    datagrams keep flowing.  [None] = nothing arrived in time.  Only
    valid when the endpoint has a single reader (all ours do). *)

val read_buffer : int -> int -> string
(** Read a received buffer back into a host string (VM reads). *)

val pending : endpoint -> int
