(** Transactions and call sessions (dialog state).

    An INVITE creates an [InviteTransaction] and a [CallSession]; the
    ACK updates the transaction; the BYE (handled by a {e different}
    worker thread) unlinks both under their table locks and deletes
    them outside — more instances of the destructor false-positive
    pattern, at distinct report sites. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring
module Containers = Raceguard_cxxsim.Containers

let lc func line = Loc.v "dialogs.cpp" ("DialogTable::" ^ func) line

(* class Transaction { RefString call_id; int state; int cseq; }
   class ClientTransaction : Transaction { RefString branch; int retransmits; }
   class InviteTransaction : ClientTransaction { int invite_cseq; int acked; } *)
let transaction_class =
  Obj_model.define ~name:"Transaction" ~fields:[ "call_id"; "state"; "cseq" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"dialogs.cpp" ~base_line:22 cls obj ~strings:[ "call_id" ]
        ~ints:[ "state"; "cseq" ])
    ()

let client_transaction_class =
  Obj_model.define ~parent:transaction_class ~name:"ClientTransaction"
    ~fields:[ "branch"; "retransmits" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"dialogs.cpp" ~base_line:30 cls obj ~strings:[ "branch" ]
        ~ints:[ "retransmits" ])
    ()

let invite_transaction_class =
  Obj_model.define ~parent:client_transaction_class ~name:"InviteTransaction"
    ~fields:[ "invite_cseq"; "acked" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"dialogs.cpp" ~base_line:38 cls obj ~strings:[]
        ~ints:[ "acked"; "invite_cseq" ])
    ()

(* class Session { RefString caller; RefString callee; }
   class MediaSession : Session { int media_port; int codec; }
   class CallSession : MediaSession { RefString subject; int started_at; } *)
let session_class =
  Obj_model.define ~name:"Session" ~fields:[ "caller"; "callee" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"dialogs.cpp" ~base_line:48 cls obj
        ~strings:[ "caller"; "callee" ] ~ints:[])
    ()

let media_session_class =
  Obj_model.define ~parent:session_class ~name:"MediaSession"
    ~fields:[ "media_port"; "codec" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"dialogs.cpp" ~base_line:56 cls obj ~strings:[]
        ~ints:[ "media_port"; "codec" ])
    ()

let call_session_class =
  Obj_model.define ~parent:media_session_class ~name:"CallSession"
    ~fields:[ "subject"; "started_at" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"dialogs.cpp" ~base_line:64 cls obj ~strings:[ "subject" ]
        ~ints:[ "started_at" ])
    ()

(* transaction states *)
let st_proceeding = 1
let st_confirmed = 2
let st_cancelled = 3

type t = {
  mutex : Api.Mutex.t;
  transactions : Containers.Map.t;  (** hash(call_id) -> transaction *)
  sessions : Containers.Map.t;  (** hash(call_id) -> session *)
  stats : Stats.t;
}

let hash = Registrar.hash_string

let create ~alloc ~stats =
  {
    mutex = Api.Mutex.create ~loc:(lc "DialogTable" 72) "dialogs.mutex";
    transactions = Containers.Map.create alloc;
    sessions = Containers.Map.create alloc;
    stats;
  }

(** INVITE: create transaction + session, insert under the lock. *)
let start_call t ~caller ~callee ~call_id ~cseq =
  let loc = lc "startCall" 81 in
  Api.with_frame loc @@ fun () ->
  let txn =
    Obj_model.new_ ~loc invite_transaction_class ~init:(fun obj ->
        let cls = invite_transaction_class in
        Obj_model.set ~loc cls obj "call_id" (Refstring.create ~loc call_id);
        Obj_model.set ~loc cls obj "state" st_proceeding;
        Obj_model.set ~loc cls obj "cseq" cseq;
        Obj_model.set ~loc cls obj "branch" (Refstring.create ~loc ("z9hG4bK-" ^ call_id));
        Obj_model.set ~loc cls obj "retransmits" 0;
        Obj_model.set ~loc cls obj "invite_cseq" cseq;
        Obj_model.set ~loc cls obj "acked" 0)
  in
  let session =
    Obj_model.new_ ~loc call_session_class ~init:(fun obj ->
        let cls = call_session_class in
        Obj_model.set ~loc cls obj "caller" (Refstring.create ~loc caller);
        Obj_model.set ~loc cls obj "callee" (Refstring.create ~loc callee);
        Obj_model.set ~loc cls obj "media_port" (10_000 + (cseq land 0xfff));
        Obj_model.set ~loc cls obj "codec" 8;
        Obj_model.set ~loc cls obj "subject" (Refstring.create ~loc "conference");
        Obj_model.set ~loc cls obj "started_at" (Api.now ()))
  in
  let key = hash call_id in
  let duplicate =
    Api.Mutex.with_lock ~loc t.mutex (fun () ->
        match Containers.Map.find t.transactions key with
        | Some existing when existing <> 0 -> true
        | _ ->
            Containers.Map.insert t.transactions key txn;
            Containers.Map.insert t.sessions key session;
            false)
  in
  if duplicate then false
  else begin
    Stats.incr_active_calls t.stats;
    true
  end

(** ACK: mark the transaction confirmed (correctly locked). *)
let confirm t ~call_id =
  let loc = lc "confirm" 115 in
  Api.with_frame loc @@ fun () ->
  let key = hash call_id in
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      match Containers.Map.find t.transactions key with
      | Some txn when txn <> 0 ->
          let cls = invite_transaction_class in
          Obj_model.set ~loc cls txn "state" st_confirmed;
          Obj_model.set ~loc cls txn "acked" 1;
          true
      | _ -> false)

(** CANCEL: mark cancelled; the BYE/cleanup path will delete. *)
let cancel t ~call_id =
  let loc = lc "cancel" 129 in
  Api.with_frame loc @@ fun () ->
  let key = hash call_id in
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      match Containers.Map.find t.transactions key with
      | Some txn when txn <> 0 ->
          Obj_model.set ~loc invite_transaction_class txn "state" st_cancelled;
          true
      | _ -> false)

(** BYE: unlink transaction and session under the lock, delete both
    outside — two distinct destructor-FP sites per call teardown. *)
let end_call t ~call_id =
  let loc = lc "endCall" 141 in
  Api.with_frame loc @@ fun () ->
  let key = hash call_id in
  let victims =
    Api.Mutex.with_lock ~loc t.mutex (fun () ->
        let txn = Containers.Map.find t.transactions key in
        let session = Containers.Map.find t.sessions key in
        (match txn with
        | Some x when x <> 0 -> ignore (Containers.Map.remove t.transactions key)
        | _ -> ());
        (match session with
        | Some s when s <> 0 -> ignore (Containers.Map.remove t.sessions key)
        | _ -> ());
        (txn, session))
  in
  match victims with
  | Some txn, Some session when txn <> 0 && session <> 0 ->
      Obj_model.delete_ ~loc:(lc "endCall" 157) ~annotate:true invite_transaction_class txn;
      Obj_model.delete_ ~loc:(lc "endCall" 158) ~annotate:true call_session_class session;
      Stats.decr_active_calls t.stats;
      true
  | _ -> false

let active_count t =
  Api.Mutex.with_lock ~loc:(lc "activeCount" 164) t.mutex (fun () ->
      Containers.Map.size t.sessions)
