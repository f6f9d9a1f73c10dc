(** Simulated datagram transport (the "kernel" socket).

    The test drivers (the SIPp stand-in) and the server exchange wire
    messages through this module.  Payload strings travel through a
    host-level queue — the kernel's socket buffer, invisible to the
    race detector, exactly as a real kernel is invisible to Helgrind.
    A VM semaphore provides the blocking [recvfrom] behaviour.

    On [recv] the payload is copied into a {e freshly allocated} VM
    buffer by the receiving thread — modelling the [read(2)] syscall
    copying into the caller's buffer in the caller's context, which is
    how Valgrind attributes syscall memory effects.

    When a fault {!Raceguard_faults.Injector} is attached, each
    datagram (except those from the ["admin"] control endpoint) may be
    dropped, duplicated, postponed or corrupted.  Postponed datagrams
    sit in a host-side holding list and are flushed into their inbox by
    subsequent transport activity ([send] and {!recv_deadline} polls) —
    fully deterministic in (seed, plan). *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Metrics = Raceguard_obs.Metrics
module Injector = Raceguard_faults.Injector

let lc func line = Loc.v "transport.cpp" func line

let m_unroutable = Metrics.counter "sip.transport.dropped_unroutable"
let m_fault_dropped = Metrics.counter "sip.transport.dropped_fault"

type endpoint = {
  name : string;
  inbox : (string * string) Queue.t;  (** (source, wire) — host level *)
  ready : Api.Sem.t;
}

type delivery =
  | Delivered
  | Dropped_unroutable
  | Dropped_fault
  | Delayed_fault

type t = {
  endpoints : (string, endpoint) Hashtbl.t;
  faults : Injector.t option;
  mutable held : (int * int * endpoint * string * string) list;
      (** (due, seq, dst, src, wire): postponed datagrams, kept sorted
          by (due, seq) so flush order is deterministic *)
  mutable held_seq : int;
}

let create ?faults () = { endpoints = Hashtbl.create 8; faults; held = []; held_seq = 0 }
let faults t = t.faults

(** Must be called from inside the VM (it creates a semaphore). *)
let endpoint t name =
  match Hashtbl.find_opt t.endpoints name with
  | Some ep -> ep
  | None ->
      let ep =
        {
          name;
          inbox = Queue.create ();
          ready = Api.Sem.create ~loc:(lc "socket" 10) ~init:0 (name ^ ".sock");
        }
      in
      Hashtbl.replace t.endpoints name ep;
      ep

let deliver ep ~src wire =
  Queue.push (src, wire) ep.inbox;
  Api.Sem.post ~loc:(lc "sendto" 24) ep.ready

(** Flush every postponed datagram whose due time has passed.  Called
    from [send] and from [recv_deadline] poll iterations, both inside
    the VM. *)
let flush_held t =
  match t.held with
  | [] -> ()
  | held ->
      let now = Api.now () in
      let due, still = List.partition (fun (d, _, _, _, _) -> d <= now) held in
      if due <> [] then begin
        t.held <- still;
        List.iter (fun (_, _, ep, src, wire) -> deliver ep ~src wire) due
      end

let hold t ~due ep ~src wire =
  let entry = (due, t.held_seq, ep, src, wire) in
  t.held_seq <- t.held_seq + 1;
  t.held <- List.merge compare t.held [ entry ]

(** Send [wire] from [src] to the endpoint named [dst]. *)
let send t ~src ~dst wire =
  flush_held t;
  match Hashtbl.find_opt t.endpoints dst with
  | None ->
      (* unknown destination: the datagram is unroutable — count it and
         tell the caller instead of losing mail silently *)
      Metrics.incr m_unroutable;
      Dropped_unroutable
  | Some ep -> (
      match t.faults with
      | Some inj when src <> "admin" -> (
          (* the admin control plane (clean-shutdown stop message) is
             exempt so every run can still terminate *)
          match Injector.datagram inj with
          | Injector.Deliver ->
              deliver ep ~src wire;
              Delivered
          | Injector.Drop ->
              Metrics.incr m_fault_dropped;
              Dropped_fault
          | Injector.Duplicate ->
              deliver ep ~src wire;
              deliver ep ~src wire;
              Delivered
          | Injector.Delay_by d ->
              hold t ~due:(Api.now () + d) ep ~src wire;
              Delayed_fault
          | Injector.Corrupt_with key ->
              deliver ep ~src (Injector.corrupt_wire ~key wire);
              Delivered)
      | _ ->
          deliver ep ~src wire;
          Delivered)

(** Blocking receive: returns the source endpoint name, the address of
    a fresh VM buffer holding the payload (one char per word), and its
    length.  The caller owns (and must free) the buffer. *)
let recv _t ep =
  Api.Sem.wait ~loc:(lc "recvfrom" 31) ep.ready;
  let src, wire = Queue.pop ep.inbox in
  let len = String.length wire in
  let buf = Api.alloc ~loc:(lc "recvfrom" 34) (max 1 len) in
  String.iteri (fun i c -> Api.write ~loc:(lc "recvfrom" 35) (buf + i) (Char.code c)) wire;
  (src, buf, len)

let recv_poll_quantum = 5

(** Receive with a deadline: polls so that postponed datagrams keep
    flowing even while every other thread sleeps.  Sound because each
    endpoint has a single reader (checking [Queue.length] host-side
    then doing a non-blocking [Sem.wait] cannot race with another
    consumer).  Returns [None] once [Api.now () >= deadline] with
    nothing delivered. *)
let rec recv_deadline t ep ~deadline =
  flush_held t;
  if Queue.length ep.inbox > 0 then Some (recv t ep)
  else if Api.now () >= deadline then None
  else begin
    Api.sleep recv_poll_quantum;
    recv_deadline t ep ~deadline
  end

(** Read a received buffer back into a host string (VM reads). *)
let read_buffer buf len =
  String.init len (fun i -> Char.chr (Api.read ~loc:(lc "recvfrom" 41) (buf + i) land 0xff))

let pending ep = Queue.length ep.inbox
