module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Containers = Raceguard_cxxsim.Containers
module Metrics = Raceguard_obs.Metrics

let lc func line = Loc.v "txn_cache.cpp" ("TxnCache::" ^ func) line

let m_hits = Metrics.counter "sip.resilience.retransmit_absorbed"

(* class TxnEntry { int key; int status; int hits; int stamp; } *)
let txn_entry_class =
  Obj_model.define ~name:"TxnEntry" ~fields:[ "key"; "status"; "hits"; "stamp" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"txn_cache.cpp" ~base_line:14 cls obj ~strings:[]
        ~ints:[ "key"; "status"; "hits"; "stamp" ])
    ()

type t = {
  rw : Api.Rwlock.t;
  entries : Containers.Map.t;  (** key -> TxnEntry address *)
  wires : (int, string) Hashtbl.t;
      (** host-side mirror of the full response payloads (the byte
          buffers a real cache would hold in the entry); keyed like the
          VM map and updated only while holding the write lock *)
  mutable hit_count : int;
}

let create ~alloc =
  {
    rw = Api.Rwlock.create ~loc:(lc "TxnCache" 20) "txn_cache.rwlock";
    entries = Containers.Map.create alloc;
    wires = Hashtbl.create 32;
    hit_count = 0;
  }

let key ~call_id ~cseq ~meth =
  Registrar.hash_string (Fmt.str "%s|%d|%d" call_id cseq meth)

let lookup t ~key =
  let loc = lc "lookup" 30 in
  Api.with_frame loc @@ fun () ->
  Api.Rwlock.with_rdlock ~loc t.rw (fun () ->
      match Containers.Map.find t.entries key with
      | Some entry when entry <> 0 ->
          (* hit counter: written under the read lock, so it must be a
             bus-locked increment (concurrent readers) *)
          ignore
            (Api.atomic_incr ~loc:(lc "lookup" 34)
               (entry + Obj_model.field_offset txn_entry_class "hits"));
          t.hit_count <- t.hit_count + 1;
          Metrics.incr m_hits;
          Hashtbl.find_opt t.wires key
      | _ -> None)

let store t ~key ~status ~wire =
  let loc = lc "store" 42 in
  Api.with_frame loc @@ fun () ->
  let entry =
    Obj_model.new_ ~loc txn_entry_class ~init:(fun obj ->
        let cls = txn_entry_class in
        Obj_model.set ~loc cls obj "key" key;
        Obj_model.set ~loc cls obj "status" status;
        Obj_model.set ~loc cls obj "hits" 0;
        Obj_model.set ~loc cls obj "stamp" (Api.now ()))
  in
  let old =
    Api.Rwlock.with_wrlock ~loc t.rw (fun () ->
        let old = Containers.Map.find t.entries key in
        Containers.Map.insert t.entries key entry;
        Hashtbl.replace t.wires key wire;
        old)
  in
  match old with
  | Some o when o <> 0 ->
      (* unlinked under the write lock, private again: delete outside *)
      Obj_model.delete_ ~loc:(lc "store" 55) ~annotate:true txn_entry_class o
  | _ -> ()

let size t =
  Api.Rwlock.with_rdlock ~loc:(lc "size" 60) t.rw (fun () ->
      Containers.Map.size t.entries)

let hits t = t.hit_count

let destroy t =
  let loc = lc "~TxnCache" 66 in
  Api.with_frame loc @@ fun () ->
  let victims = ref [] in
  Api.Rwlock.with_wrlock ~loc t.rw (fun () ->
      Containers.Map.iter t.entries (fun _ e -> if e <> 0 then victims := e :: !victims);
      Containers.Map.clear t.entries;
      Hashtbl.reset t.wires);
  List.iter
    (fun e -> Obj_model.delete_ ~loc:(lc "~TxnCache" 71) ~annotate:true txn_entry_class e)
    !victims
