(** The registrar: user → contact bindings — single-mutex or sharded.

    Binding objects are created by the worker handling a REGISTER,
    stored in a shared map, and later deleted by {e different} workers
    (refresh, unregister, expiry) — correctly: the binding is unlinked
    from the map under the lock and deleted {e outside} it, at which
    point it is private again.  The lock-set algorithm cannot know
    that: the destructor-chain writes happen with an empty lock-set on
    SHARED-MODIFIED memory, producing the paper's dominant
    false-positive class until the DR annotation suppresses it.

    {2 Sharding}

    [Unsharded] (the default) keeps the historical single-mutex layout
    — byte-identical VM operation sequence, so every T1–T8 digest is
    unchanged.  [Sharded] stripes the table over N per-shard mutexes
    behind a router word and supports {e online} growth: when the load
    factor crosses [grow_at], the triggering worker doubles the shard
    count and migrates bindings shard-to-shard under a two-lock
    transfer (lower index first).  Two flavors carry the ground truth:

    - [Resilient]: router words are bus-locked ([atomic_rmw] only);
      workers lock-then-validate (shard count and resize-in-progress
      re-checked under the shard lock, retry through the resize mutex
      on mismatch); migration holds {e both} shard locks in index
      order.  The {!audit} invariants hold under every fault plan.
    - [Legacy_striped]: three injected bug classes — (1) the migration
      inserts into the destination shard {e without} its lock, (2)
      workers skip the resize validation so a refresh can race the
      migration and strand or duplicate a binding, (3) the router word
      is read and written {e plainly}, and the read is cached across a
      yield (stale-router).  It is also collision-blind (see below).

    {2 Hash collisions}

    [hash_string] maps AORs into 2^30 keys; two colliding AORs used to
    silently overwrite each other in both the VM map and the host
    mirror.  Collision-safe modes (unsharded, resilient) intern keys
    host-side — first claimant keeps [hash_string aor], later
    colliders linearly probe to a free key — and key the mirror by the
    full AOR.  Interning is pure host bookkeeping: when no collision
    occurs the key {e is} the hash, so T1–T8 event streams are
    untouched.  [Legacy_striped] keeps the raw hash and the hash-keyed
    mirror, so the chaos "no lost registration" oracle catches the
    overwrite deterministically. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring
module Containers = Raceguard_cxxsim.Containers
module Allocator = Raceguard_cxxsim.Allocator
module Metrics = Raceguard_obs.Metrics

let lc func line = Loc.v "registrar.cpp" ("Registrar::" ^ func) line

(* class Binding { RefString aor; int expires_at; }
   class ContactBinding : Binding { RefString contact, user_agent; int cseq; int q_value; } *)
let binding_class =
  Obj_model.define ~name:"Binding" ~fields:[ "aor"; "expires_at" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"registrar.cpp" ~base_line:25 cls obj ~strings:[ "aor" ]
        ~ints:[ "expires_at" ])
    ()

let contact_binding_class =
  Obj_model.define ~parent:binding_class ~name:"ContactBinding"
    ~fields:[ "contact"; "user_agent"; "cseq"; "q_value" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"registrar.cpp" ~base_line:34 cls obj
        ~strings:[ "contact"; "user_agent" ] ~ints:[ "cseq"; "q_value" ])
    ()

let hash_string s =
  let h = ref 5381 in
  String.iter (fun c -> h := (!h * 33) + Char.code c) s;
  !h land 0x3FFFFFFF

(** A memoised pair of distinct users whose [user ^ "@example.com"]
    AORs collide under {!hash_string} — the regression input for the
    collision-blindness fix (found by offline birthday search). *)
let collision_pair () =
  let u1 = "cxryap02u" and u2 = "cx96ar2op" in
  assert (hash_string (u1 ^ "@example.com") = hash_string (u2 ^ "@example.com"));
  (u1, u2)

(* ------------------------------------------------------------------ *)
(* Sharding configuration                                              *)
(* ------------------------------------------------------------------ *)

type flavor = Resilient | Legacy_striped

type sharding =
  | Unsharded
  | Sharded of {
      flavor : flavor;
      initial : int;  (** shard count at creation (≥ 1) *)
      grow_at : int;
          (** double the shard count when total bindings reach
              [grow_at × current shard count]; 0 = manual growth only *)
      max_shards : int;
    }

(* Host-side shard metrics (registered once, like the Stats mirrors). *)
let m_resizes = Metrics.counter "sip.registrar.shard.resizes"
let m_migrations = Metrics.counter "sip.registrar.shard.migrations"
let m_router_retries = Metrics.counter "sip.registrar.shard.router_retries"
let g_shard_count = Metrics.gauge "sip.registrar.shard.count"

type shard = {
  sh_index : int;
  sh_mutex : Api.Mutex.t;
  sh_map : Containers.Map.t;  (** key -> binding object address *)
  sh_mirror : (string, string * string) Hashtbl.t;
      (** host shadow of this shard's map: mirror-key -> (aor, contact);
          the mirror key is the full AOR when collision-safe, the
          stringified hash when legacy (collision-blind on purpose) *)
}

type striped = {
  st_flavor : flavor;
  mutable st_shards : shard array;
      (** grows by append only, so a stale index < old count still
          names the same shard record *)
  st_router : int;
      (** base of two VM words: +0 shard count, +1 resize-in-progress.
          Resilient accesses both only via [atomic_rmw] (bus-locked);
          legacy reads/writes the count plainly — the stale-router bug *)
  st_resize_mutex : Api.Mutex.t;
  st_grow_at : int;
  st_max : int;
  mutable st_host_count : int;  (** host shadow of the count word *)
  mutable st_lock_pairs : (int * int) list;
      (** (outer, inner) shard-index pairs of every nested two-lock
          transfer, audited for lower-index-first ordering *)
}

type mode =
  | Single of { mutex : Api.Mutex.t; bindings : Containers.Map.t }
  | Striped of striped

type t = {
  mode : mode;
  stats : Stats.t;
  alloc : Allocator.t;  (** kept for shard creation during resize *)
  collision_safe : bool;
  intern : (string, int) Hashtbl.t;  (** aor -> interned map key *)
  claims : (int, string) Hashtbl.t;  (** interned map key -> aor *)
  model : (string, string) Hashtbl.t;
      (** host ground truth: aor -> contact as a {e correct} registrar
          would hold it, updated at the same points as the map (under
          the shard lock, zero VM traffic) — what {!audit} compares
          the shard mirrors against *)
  mirror : (string, string * string) Hashtbl.t;
      (** unsharded mirror: mirror-key -> (aor, contact) *)
}

(* --- key interning (collision-safe host bookkeeping) ---------------- *)

let intern_key t ~aor =
  if not t.collision_safe then hash_string aor
  else
    match Hashtbl.find_opt t.intern aor with
    | Some k -> k
    | None ->
        let rec probe k =
          match Hashtbl.find_opt t.claims k with
          | Some owner when not (String.equal owner aor) -> probe ((k + 1) land 0x3FFFFFFF)
          | _ -> k
        in
        let k = probe (hash_string aor) in
        Hashtbl.replace t.intern aor k;
        Hashtbl.replace t.claims k aor;
        k

let mirror_key t ~aor = if t.collision_safe then aor else string_of_int (hash_string aor)

(* the reverse direction, for migration and expiry (key -> mirror key) *)
let mirror_key_of_key t key =
  if t.collision_safe then
    match Hashtbl.find_opt t.claims key with Some aor -> aor | None -> string_of_int key
  else string_of_int key

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make_shard ~alloc ~index =
  {
    sh_index = index;
    sh_mutex =
      Api.Mutex.create ~loc:(lc "Shard" 56) (Printf.sprintf "registrar.shard.%d" index);
    sh_map = Containers.Map.create alloc;
    sh_mirror = Hashtbl.create 8;
  }

let create ?(sharding = Unsharded) ~alloc ~stats () =
  let mode, collision_safe =
    match sharding with
    | Unsharded ->
        ( Single
            {
              mutex = Api.Mutex.create ~loc:(lc "Registrar" 50) "registrar.mutex";
              bindings = Containers.Map.create alloc;
            },
          true )
    | Sharded { flavor; initial; grow_at; max_shards } ->
        let initial = max 1 initial in
        let loc = lc "Registrar" 52 in
        let resize_mutex = Api.Mutex.create ~loc "registrar.resize" in
        let router = Api.alloc ~loc 2 in
        (match flavor with
        | Resilient ->
            ignore (Api.atomic_rmw ~loc router (fun _ -> initial));
            ignore (Api.atomic_rmw ~loc (router + 1) (fun _ -> 0))
        | Legacy_striped -> Api.write ~loc router initial);
        let shards = Array.init initial (fun i -> make_shard ~alloc ~index:i) in
        Metrics.set g_shard_count initial;
        ( Striped
            {
              st_flavor = flavor;
              st_shards = shards;
              st_router = router;
              st_resize_mutex = resize_mutex;
              st_grow_at = grow_at;
              st_max = max initial max_shards;
              st_host_count = initial;
              st_lock_pairs = [];
            },
          flavor = Resilient )
  in
  {
    mode;
    stats;
    alloc;
    collision_safe;
    intern = Hashtbl.create 16;
    claims = Hashtbl.create 16;
    model = Hashtbl.create 16;
    mirror = Hashtbl.create 16;
  }

let new_binding ~loc ~aor ~contact ~cseq ~expires_at =
  Obj_model.new_ ~loc contact_binding_class ~init:(fun obj ->
      let cls = contact_binding_class in
      Obj_model.set ~loc cls obj "aor" (Refstring.create ~loc aor);
      Obj_model.set ~loc cls obj "expires_at" expires_at;
      Obj_model.set ~loc cls obj "contact" (Refstring.create ~loc contact);
      Obj_model.set ~loc cls obj "user_agent" (Refstring.create ~loc "SIPp-sim/1.0");
      Obj_model.set ~loc cls obj "cseq" cseq;
      Obj_model.set ~loc cls obj "q_value" 100)

(* ------------------------------------------------------------------ *)
(* Shard routing                                                       *)
(* ------------------------------------------------------------------ *)

(** Resilient lock-then-validate: route on the bus-locked count, take
    the shard lock, then re-check count and resize-in-progress under
    it.  On mismatch, release and wait out the resize by bouncing
    through the resize mutex. *)
let rec acquire_shard st ~key ~loc =
  match st.st_flavor with
  | Resilient ->
      let n = Api.atomic_rmw ~loc st.st_router (fun v -> v) in
      let sh = st.st_shards.(key mod n) in
      Api.Mutex.lock ~loc sh.sh_mutex;
      let inprog = Api.atomic_rmw ~loc (st.st_router + 1) (fun v -> v) in
      let n' = Api.atomic_rmw ~loc st.st_router (fun v -> v) in
      if inprog <> 0 || n' <> n then begin
        Api.Mutex.unlock ~loc sh.sh_mutex;
        Metrics.incr m_router_retries;
        Api.Mutex.lock ~loc st.st_resize_mutex;
        Api.Mutex.unlock ~loc st.st_resize_mutex;
        acquire_shard st ~key ~loc
      end
      else sh
  | Legacy_striped ->
      (* BUG (stale-router): plain read of the count, cached across a
         yield, and no validation under the shard lock — a concurrent
         resize leaves this worker routing on the old shard count. *)
      let n = Api.read ~loc st.st_router in
      Api.yield ();
      let sh = st.st_shards.(key mod n) in
      Api.Mutex.lock ~loc sh.sh_mutex;
      sh

let release_shard sh ~loc = Api.Mutex.unlock ~loc sh.sh_mutex

(* ------------------------------------------------------------------ *)
(* Online growth                                                       *)
(* ------------------------------------------------------------------ *)

(** Double the shard count, migrating bindings under two-lock transfer
    (resilient) or the injected buggy protocol (legacy).  Caller must
    hold no shard lock.  Returns whether a resize actually ran. *)
let grow_locked t st ~loc =
  let n = st.st_host_count in
  if 2 * n > st.st_max then false
  else begin
    Metrics.incr m_resizes;
    let fresh = Array.init n (fun i -> make_shard ~alloc:t.alloc ~index:(n + i)) in
    st.st_shards <- Array.append st.st_shards fresh;
    (match st.st_flavor with
    | Resilient ->
        ignore (Api.atomic_rmw ~loc (st.st_router + 1) (fun _ -> 1));
        for i = 0 to n - 1 do
          let src = st.st_shards.(i) and dst = st.st_shards.(i + n) in
          (* two-lock transfer, lower index first *)
          Api.Mutex.lock ~loc src.sh_mutex;
          Api.Mutex.lock ~loc dst.sh_mutex;
          st.st_lock_pairs <- (i, i + n) :: st.st_lock_pairs;
          let moves = ref [] in
          Containers.Map.iter src.sh_map (fun k b ->
              if b <> 0 && k mod (2 * n) <> i then moves := (k, b) :: !moves);
          List.iter
            (fun (k, b) ->
              ignore (Containers.Map.remove src.sh_map k);
              Containers.Map.insert dst.sh_map k b;
              Metrics.incr m_migrations;
              let mk = mirror_key_of_key t k in
              match Hashtbl.find_opt src.sh_mirror mk with
              | Some v ->
                  Hashtbl.remove src.sh_mirror mk;
                  Hashtbl.replace dst.sh_mirror mk v
              | None -> ())
            !moves;
          Api.Mutex.unlock ~loc dst.sh_mutex;
          Api.Mutex.unlock ~loc src.sh_mutex
        done;
        ignore (Api.atomic_rmw ~loc st.st_router (fun _ -> 2 * n));
        st.st_host_count <- 2 * n;
        ignore (Api.atomic_rmw ~loc (st.st_router + 1) (fun _ -> 0))
    | Legacy_striped ->
        for i = 0 to n - 1 do
          let src = st.st_shards.(i) and dst = st.st_shards.(i + n) in
          Api.Mutex.lock ~loc src.sh_mutex;
          let moves = ref [] in
          Containers.Map.iter src.sh_map (fun k b ->
              if b <> 0 && k mod (2 * n) <> i then moves := (k, b) :: !moves);
          let moves =
            List.map
              (fun (k, b) ->
                ignore (Containers.Map.remove src.sh_map k);
                let mk = mirror_key_of_key t k in
                let v = Hashtbl.find_opt src.sh_mirror mk in
                Hashtbl.remove src.sh_mirror mk;
                (k, b, mk, v))
              !moves
          in
          Api.Mutex.unlock ~loc src.sh_mutex;
          (* BUG (unlocked cross-shard transfer): the bindings are in
             flight in neither shard across this yield, and the
             destination inserts below happen without [dst]'s lock — a
             refresh racing this window strands or duplicates its
             binding, and the unlocked map writes race any worker. *)
          Api.yield ();
          List.iter
            (fun (k, b, mk, v) ->
              Containers.Map.insert dst.sh_map k b;
              Metrics.incr m_migrations;
              (* faithfully mirror the clobbering insert: if a refresh
                 raced its own binding into [dst] meanwhile, the stale
                 migrated value overwrites it — exactly what the map
                 just did *)
              match v with Some v -> Hashtbl.replace dst.sh_mirror mk v | None -> ())
            moves
        done;
        (* BUG (stale-router write): plain store racing the workers'
           plain router reads *)
        Api.write ~loc st.st_router (2 * n);
        st.st_host_count <- 2 * n);
    Metrics.set g_shard_count st.st_host_count;
    true
  end

let grow t st ~loc =
  Api.Mutex.lock ~loc st.st_resize_mutex;
  let grew = grow_locked t st ~loc in
  Api.Mutex.unlock ~loc st.st_resize_mutex;
  grew

let maybe_grow t st ~loc =
  if
    st.st_grow_at > 0
    && Hashtbl.length t.model >= st.st_grow_at * st.st_host_count
    && 2 * st.st_host_count <= st.st_max
  then ignore (grow t st ~loc)

(** Force one doubling (tests, rebalance-under-load drivers).  Must be
    called from inside the VM. *)
let rebalance t =
  match t.mode with
  | Single _ -> false
  | Striped st -> grow t st ~loc:(lc "rebalance" 340)

(* ------------------------------------------------------------------ *)
(* The registrar interface                                             *)
(* ------------------------------------------------------------------ *)

(** Register or refresh a binding.  Returns [`Registered] or
    [`Refreshed].  A refresh unlinks the old binding under the lock and
    deletes it outside (the FP-generating pattern). *)
let register t ~aor ~contact ~cseq ~expires =
  let loc = lc "addBinding" 70 in
  Api.with_frame loc @@ fun () ->
  let expires_at = Api.now () + (expires * 100) in
  let fresh = new_binding ~loc ~aor ~contact ~cseq ~expires_at in
  let key = intern_key t ~aor in
  let old =
    match t.mode with
    | Single { mutex; bindings } ->
        Api.Mutex.with_lock ~loc mutex (fun () ->
            let old = Containers.Map.find bindings key in
            Containers.Map.insert bindings key fresh;
            Hashtbl.replace t.mirror (mirror_key t ~aor) (aor, contact);
            Hashtbl.replace t.model aor contact;
            old)
    | Striped st ->
        let sh = acquire_shard st ~key ~loc in
        let old = Containers.Map.find sh.sh_map key in
        Containers.Map.insert sh.sh_map key fresh;
        Hashtbl.replace sh.sh_mirror (mirror_key t ~aor) (aor, contact);
        Hashtbl.replace t.model aor contact;
        release_shard sh ~loc;
        maybe_grow t st ~loc;
        old
  in
  match old with
  | Some old_binding when old_binding <> 0 ->
      (* delete outside the lock: the object is private again *)
      Obj_model.delete_ ~loc:(lc "addBinding" 82) ~annotate:true contact_binding_class old_binding;
      `Refreshed
  | _ ->
      Stats.incr_registered t.stats;
      `Registered

(** Remove a binding (REGISTER with Expires: 0). *)
let unregister t ~aor =
  let loc = lc "removeBinding" 91 in
  Api.with_frame loc @@ fun () ->
  let key = intern_key t ~aor in
  let victim =
    match t.mode with
    | Single { mutex; bindings } ->
        Api.Mutex.with_lock ~loc mutex (fun () ->
            match Containers.Map.find bindings key with
            | Some b when b <> 0 ->
                ignore (Containers.Map.remove bindings key);
                Hashtbl.remove t.mirror (mirror_key t ~aor);
                Hashtbl.remove t.model aor;
                Some b
            | _ -> None)
    | Striped st -> (
        let sh = acquire_shard st ~key ~loc in
        match Containers.Map.find sh.sh_map key with
        | Some b when b <> 0 ->
            ignore (Containers.Map.remove sh.sh_map key);
            Hashtbl.remove sh.sh_mirror (mirror_key t ~aor);
            Hashtbl.remove t.model aor;
            release_shard sh ~loc;
            Some b
        | _ ->
            release_shard sh ~loc;
            Hashtbl.remove t.model aor;
            None)
  in
  match victim with
  | Some b ->
      Stats.decr_registered t.stats;
      Obj_model.delete_ ~loc:(lc "removeBinding" 103) ~annotate:true contact_binding_class b;
      true
  | None -> false

(** Look up the current contact for an AOR; copies the contact string
    {e under the lock} (correct code, but the copy bumps a shared
    refcount — a bus-lock site). *)
let lookup t ~aor =
  let loc = lc "lookup" 111 in
  Api.with_frame loc @@ fun () ->
  let key = intern_key t ~aor in
  let find_in map =
    match Containers.Map.find map key with
    | Some b when b <> 0 ->
        let cls = contact_binding_class in
        let expires_at = Obj_model.get ~loc cls b "expires_at" in
        if expires_at > Api.now () then
          Some (Refstring.copy (Obj_model.get ~loc cls b "contact"))
        else None
    | _ -> None
  in
  match t.mode with
  | Single { mutex; bindings } -> Api.Mutex.with_lock ~loc mutex (fun () -> find_in bindings)
  | Striped st ->
      let sh = acquire_shard st ~key ~loc in
      let r = find_in sh.sh_map in
      release_shard sh ~loc;
      r

(** Delete every expired binding: unlink under the lock, delete
    outside.  Called from the housekeeping timer. *)
let expire_stale t =
  let loc = lc "expireStale" 126 in
  Api.with_frame loc @@ fun () ->
  let now = Api.now () in
  let victims = ref [] in
  let sweep_map ~mirror map =
    let expired = ref [] in
    Containers.Map.iter map (fun key b ->
        if b <> 0 then begin
          let e = Obj_model.get ~loc contact_binding_class b "expires_at" in
          if e <= now then expired := (key, b) :: !expired
        end);
    List.iter
      (fun (key, b) ->
        ignore (Containers.Map.remove map key);
        let mk = mirror_key_of_key t key in
        (match Hashtbl.find_opt mirror mk with
        | Some (aor, _) -> Hashtbl.remove t.model aor
        | None -> ());
        Hashtbl.remove mirror mk;
        victims := (key, b) :: !victims)
      !expired
  in
  (match t.mode with
  | Single { mutex; bindings } ->
      Api.Mutex.with_lock ~loc mutex (fun () -> sweep_map ~mirror:t.mirror bindings)
  | Striped st -> (
      match st.st_flavor with
      | Resilient ->
          (* hold the resize mutex for the sweep so the shard walk and a
             concurrent growth cannot interleave; per-shard locks are
             taken one at a time in index order *)
          Api.Mutex.lock ~loc st.st_resize_mutex;
          Array.iter
            (fun sh ->
              Api.Mutex.lock ~loc sh.sh_mutex;
              sweep_map ~mirror:sh.sh_mirror sh.sh_map;
              Api.Mutex.unlock ~loc sh.sh_mutex)
            st.st_shards;
          Api.Mutex.unlock ~loc st.st_resize_mutex
      | Legacy_striped ->
          (* BUG-adjacent: walks a plainly-read shard count with no
             resize coordination *)
          let n = Api.read ~loc st.st_router in
          for i = 0 to n - 1 do
            let sh = st.st_shards.(i) in
            Api.Mutex.lock ~loc sh.sh_mutex;
            sweep_map ~mirror:sh.sh_mirror sh.sh_map;
            Api.Mutex.unlock ~loc sh.sh_mutex
          done));
  List.iter
    (fun (_key, b) ->
      Stats.decr_registered t.stats;
      Obj_model.delete_ ~loc:(lc "expireStale" 145) ~annotate:true contact_binding_class b)
    !victims;
  List.length !victims

let size t =
  let loc = lc "size" 150 in
  match t.mode with
  | Single { mutex; bindings } ->
      Api.Mutex.with_lock ~loc mutex (fun () -> Containers.Map.size bindings)
  | Striped st ->
      Array.fold_left
        (fun acc sh ->
          Api.Mutex.lock ~loc sh.sh_mutex;
          let s = Containers.Map.size sh.sh_map in
          Api.Mutex.unlock ~loc sh.sh_mutex;
          acc + s)
        0 st.st_shards

(** Host-side view of the current bindings, sorted by AOR — for
    post-run oracles only (no VM traffic).  In a legacy-striped
    registrar a duplicated binding appears once per holding shard. *)
let bound_aors t =
  let of_mirror m acc = Hashtbl.fold (fun _ (aor, _) acc -> aor :: acc) m acc in
  (match t.mode with
  | Single _ -> of_mirror t.mirror []
  | Striped st -> Array.fold_left (fun acc sh -> of_mirror sh.sh_mirror acc) [] st.st_shards)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Introspection & audit                                               *)
(* ------------------------------------------------------------------ *)

let shard_count t = match t.mode with Single _ -> 1 | Striped st -> st.st_host_count

(** Which shard an AOR routes to at the current shard count (host-side,
    no VM traffic) — the router function the qcheck properties pin. *)
let route t ~aor =
  match t.mode with
  | Single _ -> 0
  | Striped st ->
      (if t.collision_safe then intern_key t ~aor else hash_string aor) mod st.st_host_count

(** Post-run invariant audit (host-side, safe after shutdown).  Empty
    on a correct registrar; each violation is a rendered string:

    - ["lost:AOR"] — the model holds a binding no shard mirror has;
    - ["ghost:AOR"] — a mirror holds a binding absent from the model;
    - ["dup:AOR"] — one AOR bound in two shards at once;
    - ["stale-contact:AOR"] — bound, but with an outdated contact;
    - ["misplaced:AOR"] — stored in a shard the router no longer maps
      its key to (stale-router / stranded-refresh evidence);
    - ["lock-order:i>j"] — a nested shard-lock pair was taken against
      the index order (inversion risk across shards). *)
let audit t =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let entries =
    match t.mode with
    | Single _ -> Hashtbl.fold (fun _ (aor, c) acc -> (0, aor, c) :: acc) t.mirror []
    | Striped st ->
        Array.fold_left
          (fun acc sh ->
            Hashtbl.fold (fun _ (aor, c) acc -> (sh.sh_index, aor, c) :: acc) sh.sh_mirror acc)
          [] st.st_shards
  in
  (* lost: in the model, nowhere in the mirrors *)
  let bound = Hashtbl.create (List.length entries) in
  List.iter (fun (_, aor, _) -> Hashtbl.replace bound aor ()) entries;
  Hashtbl.iter
    (fun aor _ -> if not (Hashtbl.mem bound aor) then add ("lost:" ^ aor))
    t.model;
  (* ghost / stale-contact / dup / misplaced *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (shard, aor, contact) ->
      (match Hashtbl.find_opt t.model aor with
      | None -> add ("ghost:" ^ aor)
      | Some c -> if not (String.equal c contact) then add ("stale-contact:" ^ aor));
      (match Hashtbl.find_opt seen aor with
      | Some other when other <> shard -> add ("dup:" ^ aor)
      | _ -> Hashtbl.replace seen aor shard);
      match t.mode with
      | Single _ -> ()
      | Striped st ->
          let key = if t.collision_safe then intern_key t ~aor else hash_string aor in
          if key mod st.st_host_count <> shard then
            add (Printf.sprintf "misplaced:%s" aor))
    (List.sort compare entries);
  (match t.mode with
  | Single _ -> ()
  | Striped st ->
      List.iter
        (fun (a, b) -> if a >= b then add (Printf.sprintf "lock-order:%d>%d" a b))
        st.st_lock_pairs);
  List.sort_uniq compare !violations
