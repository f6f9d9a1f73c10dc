(** Request history: a bounded ring of per-request digest objects kept
    for diagnostics ("last N requests seen"), shared by all workers.

    Every handler records a digest; once the ring is full each insert
    evicts the oldest entry — an object created by {e some other}
    worker thread, unlinked under the ring's lock and deleted outside
    it.  Like every delete-after-unlink in this code base, the eviction
    is correct, and the destructor chain of the evicted digest is a
    false-positive factory until the DR annotation suppresses it.
    Because the recording call sits inside each handler, every request
    kind contributes its own family of report sites — this is how a
    large C++ server accumulates {e hundreds} of destructor-FP
    locations (Figure 5's dominant bar). *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring

let lc func line = Loc.v "history.cpp" ("RequestHistory::" ^ func) line

(* class Digest { int timestamp; int src_id; }
   class StampedDigest : Digest { int seq; int flags; }
   class RequestDigest : StampedDigest { RefString uri; int method; int outcome; } *)
let digest_class =
  Obj_model.define ~name:"Digest" ~fields:[ "timestamp"; "src_id" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"history.cpp" ~base_line:22 cls obj ~strings:[]
        ~ints:[ "timestamp"; "src_id" ])
    ()

let stamped_digest_class =
  Obj_model.define ~parent:digest_class ~name:"StampedDigest" ~fields:[ "seq"; "flags" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"history.cpp" ~base_line:28 cls obj ~strings:[]
        ~ints:[ "seq"; "flags" ])
    ()

let request_digest_class =
  Obj_model.define ~parent:stamped_digest_class ~name:"RequestDigest"
    ~fields:[ "uri"; "method"; "outcome" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"history.cpp" ~base_line:34 cls obj ~strings:[ "uri" ]
        ~ints:[ "method"; "outcome" ])
    ()

type t = {
  mutex : Api.Mutex.t;
  ring : int;  (** capacity words holding digest addresses *)
  capacity : int;
  next : int;  (** address of the rotating insert index *)
}

let create ~capacity =
  let loc = lc "RequestHistory" 44 in
  let ring = Api.alloc ~loc (capacity + 1) in
  {
    mutex = Api.Mutex.create ~loc "history.mutex";
    ring;
    capacity;
    next = ring + capacity;
  }

(** Record one request: build a digest, swap it into the ring under the
    lock, delete the evicted digest outside the lock. *)
let record t ~src_id ~meth ~uri ~outcome =
  let loc = lc "record" 57 in
  Api.with_frame loc @@ fun () ->
  let digest =
    Obj_model.new_ ~loc request_digest_class ~init:(fun obj ->
        let cls = request_digest_class in
        Obj_model.set ~loc cls obj "timestamp" (Api.now ());
        Obj_model.set ~loc cls obj "src_id" src_id;
        Obj_model.set ~loc cls obj "seq" (Api.now () land 0xffff);
        Obj_model.set ~loc cls obj "flags" 0;
        Obj_model.set ~loc cls obj "uri" (Refstring.create ~loc uri);
        Obj_model.set ~loc cls obj "method" meth;
        Obj_model.set ~loc cls obj "outcome" outcome)
  in
  let evicted =
    Api.Mutex.with_lock ~loc t.mutex (fun () ->
        let idx = Api.read ~loc:(lc "record" 71) t.next in
        let old = Api.read ~loc:(lc "record" 72) (t.ring + idx) in
        Api.write ~loc:(lc "record" 73) (t.ring + idx) digest;
        Api.write ~loc:(lc "record" 74) t.next ((idx + 1) mod t.capacity);
        old)
  in
  if evicted <> 0 then
    Obj_model.delete_ ~loc:(lc "record" 78) ~annotate:true request_digest_class evicted

(** Drain the ring at shutdown. *)
let clear t =
  let loc = lc "clear" 83 in
  Api.with_frame loc @@ fun () ->
  let victims =
    Api.Mutex.with_lock ~loc t.mutex (fun () ->
        let out = ref [] in
        for i = 0 to t.capacity - 1 do
          let d = Api.read ~loc:(lc "clear" 89) (t.ring + i) in
          if d <> 0 then out := d :: !out;
          Api.write ~loc:(lc "clear" 91) (t.ring + i) 0
        done;
        !out)
  in
  List.iter
    (fun d -> Obj_model.delete_ ~loc:(lc "clear" 96) ~annotate:true request_digest_class d)
    victims
