(** Digest-style authentication for REGISTER (RFC 2617 reduced to its
    concurrency-relevant skeleton).

    The nonce cache is a shared mutex-guarded map; challenge creates a
    [Nonce] object, verification unlinks it under the lock and deletes
    it outside — one more instance of the delete-after-unlink pattern
    whose destructor chain the DR annotation must suppress.  Enable
    with [Proxy.config.require_auth]. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring
module Containers = Raceguard_cxxsim.Containers

let lc func line = Loc.v "auth.cpp" ("NonceCache::" ^ func) line

(* class Token { int issued_at; int uses; }
   class Nonce : Token { RefString user; int value; } *)
let token_class =
  Obj_model.define ~name:"Token" ~fields:[ "issued_at"; "uses" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"auth.cpp" ~base_line:20 cls obj ~strings:[]
        ~ints:[ "issued_at"; "uses" ])
    ()

let nonce_class =
  Obj_model.define ~parent:token_class ~name:"Nonce" ~fields:[ "user"; "value" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"auth.cpp" ~base_line:27 cls obj ~strings:[ "user" ]
        ~ints:[ "value" ])
    ()

type t = {
  mutex : Api.Mutex.t;
  nonces : Containers.Map.t;  (** hash(user) -> Nonce address *)
}

let create ~alloc =
  {
    mutex = Api.Mutex.create ~loc:(lc "NonceCache" 38) "auth.mutex";
    nonces = Containers.Map.create alloc;
  }

(** The client-side response to a challenge (the "digest"). *)
let response_for ~nonce = (nonce * 31) land 0xFFFFFF

(** Issue a challenge for [user]: create a nonce, replace any previous
    one (deleting it outside the lock), return the nonce value. *)
let challenge t ~user =
  let loc = lc "challenge" 49 in
  Api.with_frame loc @@ fun () ->
  let value = 1 + (Api.random_int 0xFFFFF) in
  let nonce =
    Obj_model.new_ ~loc nonce_class ~init:(fun obj ->
        let cls = nonce_class in
        Obj_model.set ~loc cls obj "issued_at" (Api.now ());
        Obj_model.set ~loc cls obj "uses" 0;
        Obj_model.set ~loc cls obj "user" (Refstring.create ~loc user);
        Obj_model.set ~loc cls obj "value" value)
  in
  let key = Registrar.hash_string user in
  let old =
    Api.Mutex.with_lock ~loc t.mutex (fun () ->
        let old = Containers.Map.find t.nonces key in
        Containers.Map.insert t.nonces key nonce;
        old)
  in
  (match old with
  | Some o when o <> 0 -> Obj_model.delete_ ~loc:(lc "challenge" 67) ~annotate:true nonce_class o
  | _ -> ());
  value

(** Verify a response: consume the nonce (single use) and check the
    digest.  Returns false for unknown users, stale nonces or wrong
    responses. *)
let verify t ~user ~response =
  let loc = lc "verify" 75 in
  Api.with_frame loc @@ fun () ->
  let key = Registrar.hash_string user in
  let nonce =
    Api.Mutex.with_lock ~loc t.mutex (fun () ->
        match Containers.Map.find t.nonces key with
        | Some n when n <> 0 ->
            ignore (Containers.Map.remove t.nonces key);
            Some n
        | _ -> None)
  in
  match nonce with
  | None -> false
  | Some n ->
      let value = Obj_model.get ~loc nonce_class n "value" in
      let ok = response = response_for ~nonce:value in
      Obj_model.delete_ ~loc:(lc "verify" 90) ~annotate:true nonce_class n;
      ok
