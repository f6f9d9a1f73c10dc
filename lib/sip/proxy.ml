(** The SIP proxy / registrar server — the application under test.

    A scaled-down transliteration of the paper's 500 kLOC commercial
    signalling server: POSIX-thread style concurrency, the
    "thread-per-request" pattern (one worker spawned per datagram,
    §3.3) with an optional thread-pool variant (§4.2.3), shared state
    behind mutexes — and the real bugs the paper found left in,
    individually toggleable:

    - B1 watchdog race ([enable_watchdog], disabled by default exactly
      as the authors disabled it "for further experiments");
    - B2 initialisation-order race (always on, §4.1.1);
    - B3 shutdown-order race ([shutdown_racy], §4.1.1);
    - B4 returning a reference to a locked map ([use_leaked_ref],
      §4.1.2 / Figure 7);
    - B5 non-thread-safe time formatting (always on, §4.1.3);
    - B6 unsynchronised statistics counters (always on).

    False-positive generators faithful to the paper: destructor chains
    of derived objects deleted after unlinking from shared tables,
    copy-on-write strings with bus-locked reference counters, stop
    flags written with [LOCK]-prefixed stores, and (optionally) the
    pooled container allocator.

    With [config.resilient] set the server additionally behaves like
    a hardened RFC 3261 element: final responses are cached and replay
    retransmitted requests ({!Txn_cache}), INVITE 200s are retransmitted
    with exponential backoff until ACKed ({!Timer_wheel} + {!Backoff}),
    requests past their deadline and datagrams arriving over the pool's
    high-water mark are deliberately shed with 503 + Retry-After, and
    injected allocation failures are converted to 503s instead of dead
    workers. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring
module Allocator = Raceguard_cxxsim.Allocator
module Metrics = Raceguard_obs.Metrics

let lc func line = Loc.v "proxy.cpp" ("SipProxy::" ^ func) line

let m_shed = Metrics.counter "sip.resilience.shed"
let m_deadline_dropped = Metrics.counter "sip.resilience.deadline_dropped"
let m_oom_503 = Metrics.counter "sip.resilience.oom_503"
let m_invite_replayed = Metrics.counter "sip.resilience.invite_replayed"

type pattern = Per_request | Pool of int

(* The resilient server's overload profile. *)
let shed_high_water = 4  (* pool-queue depth at which the listener sheds *)
let retry_after = 60  (* Retry-After on every deliberate 503 (ticks) *)
let deadline = 400  (* requests older than this when dequeued get a 503 *)

let domains = [ "example.com"; "voip.example.net"; "pbx.local" ]

type config = {
  alloc_mode : Allocator.mode;
  pattern : pattern;
  enable_watchdog : bool;  (** B1 *)
  shutdown_racy : bool;  (** B3 *)
  use_leaked_ref : bool;  (** B4 *)
  require_auth : bool;
      (** challenge REGISTERs with a digest nonce (401 flow) *)
  resilient : bool;
      (** [false] = the legacy server; [true] enables the recovery
          paths (response cache, 200 retransmission, shedding) *)
  registrar_sharding : Registrar.sharding;
      (** [Unsharded] (the default) keeps the historical single-mutex
          registrar byte-identical; [Sharded] stripes it with online
          rebalance (the T9/T10 storm surface) *)
}

let default_config =
  {
    alloc_mode = Allocator.Direct;
    pattern = Per_request;
    enable_watchdog = false;
    shutdown_racy = true;
    use_leaked_ref = true;
    require_auth = false;
    resilient = false;
    registrar_sharding = Registrar.Unsharded;
  }

(* class CtxBase { int src_id; }
   class RequestCtx : CtxBase { int buf; int len; int status; int handled; } *)
let ctx_base_class =
  Obj_model.define ~name:"CtxBase" ~fields:[ "src_id" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.set ~loc:(Loc.v "proxy.cpp" "CtxBase::~CtxBase" 60) cls obj "src_id" 0)
    ()

let request_ctx_class =
  Obj_model.define ~parent:ctx_base_class ~name:"RequestCtx"
    ~fields:[ "buf"; "len"; "status"; "handled"; "latency"; "born" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.set ~loc:(Loc.v "proxy.cpp" "RequestCtx::~RequestCtx" 67) cls obj "handled" 0)
    ()

type t = {
  config : config;
  transport : Transport.t;
  endpoint : Transport.endpoint;
  alloc : Allocator.t;
  stats : Stats.t;
  time : Timeutil.t;
  logger : Logger.t;
  registrar : Registrar.t;
  dialogs : Dialogs.t;
  domain_data : Domain_data.t;
  routing : Routing.t;
  history : History.t;
  auth : Auth.t;
  timer : Timer_wheel.t;
  watchdog : Watchdog.t option;
  txn_cache : Txn_cache.t option;  (** response cache, resilient builds only *)
  retrans : (int, string * string) Hashtbl.t;
      (** txn_key -> (peer, final 200 wire) awaiting ACK — the host-side
          mirror backing the timer's resend callback *)
  server_name : Refstring.t;  (** shared banner string *)
  reason_ok : Refstring.t;  (** canned reason phrases, shared across workers *)
  reason_ringing : Refstring.t;
  reason_not_found : Refstring.t;
  reason_bad_request : Refstring.t;
  reason_gone : Refstring.t;
  reason_unauthorized : Refstring.t;
  mutable sources : string array;  (** src_id -> endpoint name (host side) *)
  mutable n_sources : int;
  mutable listener : int;
  mutable workers : int list;  (** per-request worker tids *)
  pool : Raceguard_vm.Thread_pool.t option ref;
}

let stop_wire = "__STOP__"

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let extract_domain uri =
  (* sip:user@domain -> domain *)
  match String.index_opt uri '@' with
  | Some i -> String.sub uri (i + 1) (String.length uri - i - 1)
  | None -> ( match String.index_opt uri ':' with
      | Some i -> String.sub uri (i + 1) (String.length uri - i - 1)
      | None -> uri)

let extract_user uri =
  let uri = match String.index_opt uri ':' with
    | Some i when String.length uri > 4 && String.sub uri 0 4 = "sip:" ->
        String.sub uri (i + 1) (String.length uri - i - 1)
    | _ -> uri
  in
  match String.index_opt uri '@' with Some i -> String.sub uri 0 i | None -> uri

let resilient t = t.config.resilient

let txn_key_of (w : Sip_msg.wire_request) =
  Txn_cache.key ~call_id:w.w_call_id ~cseq:w.w_cseq ~meth:(Sip_msg.meth_code w.w_meth)

(** Cache key for the final response of this transaction, when the
    response cache is enabled. *)
let ck t (w : Sip_msg.wire_request) =
  match t.txn_cache with Some _ -> Some (txn_key_of w) | None -> None

(** A matchable 503 built host-side (no allocation): the recovery path
    for requests we refuse or cannot serve. *)
let unavailable_wire (w : Sip_msg.wire_request) ~retry_after =
  Printf.sprintf
    "SIP/2.0 503 Service Unavailable\r\nFrom: %s\r\nTo: %s\r\nCall-ID: %s\r\nCSeq: %d\r\nRetry-After: %d\r\n\r\n"
    w.w_from w.w_to w.w_call_id w.w_cseq retry_after

let reply t ~src ?(www_auth = 0) ?store ~status ~reason_rs req_obj =
  let loc = lc "reply" 120 in
  Api.with_frame loc @@ fun () ->
  let resp = Sip_msg.build_response_object ~loc ~www_auth ~status ~reason_rs req_obj in
  let wire = Sip_msg.serialize_response ~loc resp in
  (match Transport.send t.transport ~src:"server" ~dst:src wire with
  | Transport.Dropped_unroutable ->
      Logger.log t.logger ~loc:(lc "reply" 123) ~level:2
        (Printf.sprintf "response %d to unroutable peer %s" status src)
  | Transport.Delivered | Transport.Dropped_fault | Transport.Delayed_fault -> ());
  Stats.incr_total_responses t.stats;
  (* remember the final response so a retransmitted request is answered
     from the cache (401 challenges carry one-shot nonces: never cached) *)
  (match (t.txn_cache, store) with
  | Some cache, Some key when status >= 200 && status <> 401 ->
      Txn_cache.store cache ~key ~status ~wire
  | _ -> ());
  (* the response was created and is deleted by this worker: exclusive,
     so its destructor chain is (correctly) silent *)
  Obj_model.delete_ ~loc:(lc "reply" 127) ~annotate:true Sip_msg.sip_response resp;
  wire

let reply_raw t ~src ~status ~reason =
  ignore
    (Transport.send t.transport ~src:"server" ~dst:src
       (Printf.sprintf "SIP/2.0 %d %s\r\n\r\n" status reason));
  Stats.incr_total_responses t.stats

let record_history t ~src_id (w : Sip_msg.wire_request) ~outcome =
  Stats.incr_method t.stats ~meth_code:(Sip_msg.meth_code w.w_meth);
  (* timestamp the handler trace with the non-thread-safe ctime (B5) *)
  ignore (Timeutil.ctime t.time);
  History.record t.history ~src_id ~meth:(Sip_msg.meth_code w.w_meth) ~uri:w.w_uri ~outcome

(** Drop the awaiting-ACK state of a terminated INVITE transaction:
    cancel pending 200 retransmissions and forget the cached wire. *)
let clear_retransmit t ~call_id =
  if resilient t then begin
    let txn_key = Registrar.hash_string call_id in
    ignore (Timer_wheel.cancel t.timer ~txn_key);
    Hashtbl.remove t.retrans txn_key
  end

let handle_register t ~src ~src_id (w : Sip_msg.wire_request) req_obj =
  Api.with_frame (lc "handleRegister" 137) @@ fun () ->
  record_history t ~src_id w ~outcome:200;
  let aor = extract_user w.w_to ^ "@" ^ extract_domain w.w_to in
  let authorized =
    (not t.config.require_auth)
    || (w.w_auth <> 0 && Auth.verify t.auth ~user:aor ~response:w.w_auth)
  in
  if not authorized then begin
    (* RFC 2617 challenge: issue a nonce and ask the UAC to retry *)
    let nonce = Auth.challenge t.auth ~user:aor in
    ignore (reply t ~src ~www_auth:nonce ~status:401 ~reason_rs:t.reason_unauthorized req_obj)
  end
  else
  if w.w_expires = 0 then begin
    let existed = Registrar.unregister t.registrar ~aor in
    Logger.log t.logger ~loc:(lc "handleRegister" 140) ~level:1
      (Printf.sprintf "unregister %s (%b)" aor existed);
    ignore (reply t ~src ?store:(ck t w) ~status:200 ~reason_rs:t.reason_ok req_obj)
  end
  else begin
    let expires = if w.w_expires > 0 then w.w_expires else 3600 in
    let outcome =
      Registrar.register t.registrar ~aor ~contact:w.w_contact ~cseq:w.w_cseq ~expires
    in
    Logger.log t.logger ~loc:(lc "handleRegister" 150) ~level:1
      (Printf.sprintf "register %s -> %s (%s)" aor w.w_contact
         (match outcome with `Registered -> "new" | `Refreshed -> "refresh"));
    ignore (reply t ~src ?store:(ck t w) ~status:200 ~reason_rs:t.reason_ok req_obj)
  end

let handle_invite t ~src ~src_id (w : Sip_msg.wire_request) req_obj =
  Api.with_frame (lc "handleInvite" 160) @@ fun () ->
  record_history t ~src_id w ~outcome:180;
  let callee = extract_user w.w_to ^ "@" ^ extract_domain w.w_to in
  let domain = extract_domain w.w_to in
  (* consult per-domain limits through the leaky accessor (B4) *)
  let _limit =
    if t.config.use_leaked_ref then Domain_data.unsafe_lookup t.domain_data ~domain
    else Domain_data.safe_lookup t.domain_data ~domain
  in
  let _route = Routing.next_hop t.routing ~domain in
  match Registrar.lookup t.registrar ~aor:callee with
  | None ->
      Logger.log t.logger ~loc:(lc "handleInvite" 167) ~level:2
        (Printf.sprintf "INVITE %s: callee not registered" callee);
      ignore (reply t ~src ?store:(ck t w) ~status:404 ~reason_rs:t.reason_not_found req_obj)
  | Some contact_copy ->
      (* we own one reference to the contact string now *)
      let txn_key = Registrar.hash_string w.w_call_id in
      let rec establish ~retry_left =
        let started =
          Dialogs.start_call t.dialogs ~caller:w.w_from ~callee:w.w_to ~call_id:w.w_call_id
            ~cseq:w.w_cseq
        in
        if started then begin
          Timer_wheel.schedule_retransmit t.timer ~txn_key ~delay:40;
          Logger.log t.logger ~loc:(lc "handleInvite" 179) ~level:1
            (Printf.sprintf "call %s -> %s via %s" w.w_from w.w_to
               (Refstring.to_string contact_copy));
          ignore (reply t ~src ~status:180 ~reason_rs:t.reason_ringing req_obj);
          let wire = reply t ~src ?store:(ck t w) ~status:200 ~reason_rs:t.reason_ok req_obj in
          if resilient t then Hashtbl.replace t.retrans txn_key (src, wire)
        end
        else if retry_left > 0 && resilient t then begin
          (* a duplicate INVITE whose original transaction is still live
             (its 200 may have been lost before the cache saw it): tear
             the half-open dialog down and re-establish, instead of the
             legacy spurious 482 *)
          Metrics.incr m_invite_replayed;
          clear_retransmit t ~call_id:w.w_call_id;
          ignore (Dialogs.end_call t.dialogs ~call_id:w.w_call_id);
          establish ~retry_left:(retry_left - 1)
        end
        else
          ignore (reply t ~src ?store:(ck t w) ~status:482 ~reason_rs:t.reason_bad_request req_obj)
      in
      establish ~retry_left:1;
      Refstring.release contact_copy

let handle_bye t ~src ~src_id (w : Sip_msg.wire_request) req_obj =
  Api.with_frame (lc "handleBye" 189) @@ fun () ->
  record_history t ~src_id w ~outcome:200;
  let ended = Dialogs.end_call t.dialogs ~call_id:w.w_call_id in
  Logger.log t.logger ~loc:(lc "handleBye" 191) ~level:1
    (Printf.sprintf "BYE %s (%b)" w.w_call_id ended);
  if ended then begin
    clear_retransmit t ~call_id:w.w_call_id;
    ignore (reply t ~src ?store:(ck t w) ~status:200 ~reason_rs:t.reason_ok req_obj)
  end
  else ignore (reply t ~src ?store:(ck t w) ~status:481 ~reason_rs:t.reason_gone req_obj)

let handle_cancel t ~src ~src_id (w : Sip_msg.wire_request) req_obj =
  Api.with_frame (lc "handleCancel" 197) @@ fun () ->
  record_history t ~src_id w ~outcome:487;
  let ok = Dialogs.cancel t.dialogs ~call_id:w.w_call_id in
  if ok then begin
    clear_retransmit t ~call_id:w.w_call_id;
    ignore (reply t ~src ?store:(ck t w) ~status:200 ~reason_rs:t.reason_ok req_obj)
  end
  else ignore (reply t ~src ?store:(ck t w) ~status:481 ~reason_rs:t.reason_gone req_obj)

let handle_options t ~src ~src_id (w : Sip_msg.wire_request) req_obj =
  Api.with_frame (lc "handleOptions" 202) @@ fun () ->
  record_history t ~src_id w ~outcome:200;
  let _route = Routing.next_hop t.routing ~domain:(extract_domain w.w_uri) in
  (* touch the shared banner (copy + read + release: bus-lock sites) *)
  let banner = Refstring.copy t.server_name in
  Logger.log t.logger ~loc:(lc "handleOptions" 204) ~level:0
    (Printf.sprintf "OPTIONS served by %s" (Refstring.to_string banner));
  Refstring.release banner;
  ignore (reply t ~src ~status:200 ~reason_rs:t.reason_ok req_obj)

(** The per-request worker body: parse, dispatch, clean up. *)
let process_request t ~src_id ~buf ~len ~born =
  let loc = lc "processRequest" 212 in
  Api.with_frame loc @@ fun () ->
  (match t.watchdog with Some w -> Watchdog.before_lock w | None -> ());
  let src = t.sources.(src_id) in
  Stats.incr_total_requests t.stats;
  (match Sip_msg.parse_request buf len with
  | exception Sip_msg.Parse_error why ->
      Stats.incr_parse_errors t.stats;
      Logger.log t.logger ~loc:(lc "processRequest" 221) ~level:2 ("parse error: " ^ why);
      reply_raw t ~src ~status:400 ~reason:"Bad Request"
  | w ->
      let answered_from_cache =
        match t.txn_cache with
        | Some cache when w.w_meth <> Sip_msg.ACK -> (
            match Txn_cache.lookup cache ~key:(txn_key_of w) with
            | Some wire ->
                (* a retransmission of a completed transaction: replay
                   the final response instead of re-executing (§17.2) *)
                ignore (Transport.send t.transport ~src:"server" ~dst:src wire);
                Stats.incr_total_responses t.stats;
                true
            | None -> false)
        | _ -> false
      in
      let past_deadline = resilient t && Api.now () - born > deadline in
      if answered_from_cache then ()
      else if past_deadline then begin
        (* the client has long since retransmitted or given up: answer
           cheaply and deliberately instead of doing stale work *)
        Metrics.incr m_deadline_dropped;
        ignore
          (Transport.send t.transport ~src:"server" ~dst:src
             (unavailable_wire w ~retry_after));
        Stats.incr_total_responses t.stats
      end
      else begin
        let req_obj = Sip_msg.build_request_object ~loc w in
        (try
           match w.w_meth with
           | Sip_msg.REGISTER -> handle_register t ~src ~src_id w req_obj
           | Sip_msg.INVITE -> handle_invite t ~src ~src_id w req_obj
           | Sip_msg.ACK ->
               ignore (Dialogs.confirm t.dialogs ~call_id:w.w_call_id);
               (* the ACK ends 200 retransmission (RFC 3261 §13.3.1.4) *)
               clear_retransmit t ~call_id:w.w_call_id
           | Sip_msg.BYE -> handle_bye t ~src ~src_id w req_obj
           | Sip_msg.CANCEL -> handle_cancel t ~src ~src_id w req_obj
           | Sip_msg.OPTIONS -> handle_options t ~src ~src_id w req_obj
         with Raceguard_faults.Injector.Out_of_memory when resilient t ->
           (* injected allocation failure: the legacy server lets the
              worker die; the resilient one degrades to a 503 *)
           Metrics.incr m_oom_503;
           Logger.log t.logger ~loc:(lc "processRequest" 233) ~level:2
             (Printf.sprintf "allocation failure handling %s: 503" w.w_call_id);
           ignore
             (Transport.send t.transport ~src:"server" ~dst:src
                (unavailable_wire w ~retry_after));
           Stats.incr_total_responses t.stats);
        (* request object was created and dies here: exclusive, silent *)
        Obj_model.delete_ ~loc:(lc "processRequest" 234) ~annotate:true
          Sip_msg.sip_request req_obj
      end);
  (* scrub the datagram before releasing it (it may hold credentials);
     in pool mode these writes hit listener-owned memory *)
  for i = 0 to len - 1 do
    Api.write ~loc:(lc "scrubBuffer" 239) (buf + i) 0
  done;
  Api.free ~loc:(lc "processRequest" 241) buf;
  match t.watchdog with Some w -> Watchdog.after_lock w | None -> ()

(** Entry point shared by both concurrency patterns: takes ownership of
    a [RequestCtx] object, processes it, writes the outcome back into
    the ctx (the Figure 11 "process data" write) and deletes it. *)
let run_ctx t ctx =
  let loc = lc "runCtx" 243 in
  let cls = request_ctx_class in
  let src_id = Obj_model.get ~loc cls ctx "src_id" in
  let buf = Obj_model.get ~loc cls ctx "buf" in
  let len = Obj_model.get ~loc cls ctx "len" in
  let born = Obj_model.get ~loc cls ctx "born" in
  let t0 = Api.now () in
  process_request t ~src_id ~buf ~len ~born;
  (* in pool mode these writes land on memory set up by the listener
     with no create/join edge in between: reported (Figure 11) *)
  Obj_model.set ~loc:(lc "runCtx" 250) cls ctx "status" 200;
  Obj_model.set ~loc:(lc "runCtx" 251) cls ctx "handled" 1;
  Obj_model.set ~loc:(lc "runCtx" 252) cls ctx "latency" (Api.now () - t0);
  Obj_model.delete_ ~loc:(lc "runCtx" 253) ~annotate:true cls ctx

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

let src_id_of t name =
  let rec find i = if i >= t.n_sources then -1 else if t.sources.(i) = name then i else find (i + 1) in
  let existing = find 0 in
  if existing >= 0 then existing
  else begin
    if t.n_sources >= Array.length t.sources then begin
      let bigger = Array.make (2 * Array.length t.sources) "" in
      Array.blit t.sources 0 bigger 0 t.n_sources;
      t.sources <- bigger
    end;
    t.sources.(t.n_sources) <- name;
    t.n_sources <- t.n_sources + 1;
    t.n_sources - 1
  end

(** Overload control (RFC 3261 §21.5.4): when the pool queue is past
    the high-water mark, answer 503 + Retry-After straight from the
    listener and never enqueue the work. *)
let shed_datagram t ~src wire_peek =
  Metrics.incr m_shed;
  let header name default =
    match Sip_msg.wire_header wire_peek name with Some v -> v | None -> default
  in
  ignore
    (Transport.send t.transport ~src:"server" ~dst:src
       (Printf.sprintf
          "SIP/2.0 503 Service Unavailable\r\nCall-ID: %s\r\nCSeq: %s\r\nRetry-After: %d\r\n\r\n"
          (header "Call-ID" "?") (header "CSeq" "0") retry_after));
  Stats.incr_total_responses t.stats

let listener_body t () =
  Api.with_frame (lc "listener" 275) @@ fun () ->
  let continue_ = ref true in
  while !continue_ do
    let src, buf, len = Transport.recv t.transport t.endpoint in
    let wire_peek = Transport.read_buffer buf len in
    if wire_peek = stop_wire then begin
      Api.free ~loc:(lc "listener" 281) buf;
      continue_ := false
    end
    else begin
      let loc = lc "listener" 285 in
      let src_id = src_id_of t src in
      let overloaded =
        resilient t
        &&
        match !(t.pool) with
        | Some pool -> Raceguard_vm.Thread_pool.queue_length pool >= shed_high_water
        | None -> false
      in
      if overloaded then begin
        shed_datagram t ~src wire_peek;
        Api.free ~loc:(lc "listener" 292) buf
      end
      else begin
        (* the setup writes of Figures 10/11: the listener fills the ctx
           before handing it over *)
        let ctx =
          Obj_model.new_ ~loc request_ctx_class ~init:(fun obj ->
              let cls = request_ctx_class in
              Obj_model.set ~loc cls obj "src_id" src_id;
              Obj_model.set ~loc cls obj "buf" buf;
              Obj_model.set ~loc cls obj "len" len;
              Obj_model.set ~loc cls obj "status" 0;
              Obj_model.set ~loc cls obj "handled" 0;
              Obj_model.set ~loc cls obj "latency" 0;
              Obj_model.set ~loc cls obj "born" (Api.now ()))
        in
        match t.config.pattern with
        | Per_request ->
            (* Figure 10: ownership passes through thread creation *)
            let tid =
              Api.spawn ~loc:(lc "listener" 302) ~name:"worker" (fun () -> run_ctx t ctx)
            in
            t.workers <- tid :: t.workers
        | Pool _ -> (
            (* Figure 11: ownership passes through the queue — invisible
               to the lock-set algorithm *)
            match !(t.pool) with
            | Some pool -> Raceguard_vm.Thread_pool.submit pool ctx
            | None -> invalid_arg "listener: pool not started")
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(** Start the server (call from inside the VM).  Returns the handle
    used by drivers and by {!shutdown}. *)
let start ~transport config =
  let loc = lc "start" 322 in
  Api.with_frame loc @@ fun () ->
  let alloc = Allocator.create ?faults:(Transport.faults transport) config.alloc_mode in
  let stats = Stats.create () in
  let time = Timeutil.create () in
  let logger = Logger.create ~stats ~time in
  Logger.start logger;
  let registrar = Registrar.create ~sharding:config.registrar_sharding ~alloc ~stats () in
  let dialogs = Dialogs.create ~alloc ~stats in
  (* B2 lives inside: the reloader starts before the map is filled *)
  let domain_data =
    Domain_data.create ~alloc ~init_racy:true ~recover_alloc_failure:config.resilient ~domains ()
  in
  let routing = Routing.create ~domains in
  let history = History.create ~capacity:6 in
  let auth = Auth.create ~alloc in
  let registrar_ref = ref registrar in
  (* the resend callback closes over [t], which does not exist yet:
     indirect through a ref cell filled in below *)
  let resend_ref = ref (fun ~txn_key:_ ~attempt:_ -> false) in
  let timer =
    Timer_wheel.create ~alloc
      ?resend:
        (if config.resilient then Some (fun ~txn_key ~attempt -> !resend_ref ~txn_key ~attempt)
         else None)
      ~recover_alloc_failure:config.resilient
      ~housekeeping:(fun () ->
        ignore (Registrar.expire_stale !registrar_ref);
        Routing.refresh routing)
      ()
  in
  Timer_wheel.start timer;
  let watchdog =
    if config.enable_watchdog then begin
      let w = Watchdog.create ~timeout:500 in
      Watchdog.start w;
      Some w
    end
    else None
  in
  let endpoint = Transport.endpoint transport "server" in
  let t =
    {
      config;
      transport;
      endpoint;
      alloc;
      stats;
      time;
      logger;
      registrar;
      dialogs;
      domain_data;
      routing;
      history;
      auth;
      timer;
      watchdog;
      txn_cache =
        (if config.resilient then Some (Txn_cache.create ~alloc) else None);
      retrans = Hashtbl.create 32;
      server_name = Refstring.create ~loc "RaceGuard-SIP/0.9 (experimental)";
      reason_ok = Refstring.create ~loc "OK";
      reason_ringing = Refstring.create ~loc "Ringing";
      reason_not_found = Refstring.create ~loc "Not Found";
      reason_bad_request = Refstring.create ~loc "Loop Detected";
      reason_gone = Refstring.create ~loc "Call/Transaction Does Not Exist";
      reason_unauthorized = Refstring.create ~loc "Unauthorized";
      sources = Array.make 8 "";
      n_sources = 0;
      listener = -1;
      workers = [];
      pool = ref None;
    }
  in
  resend_ref :=
    (fun ~txn_key ~attempt:_ ->
      (* retransmit the un-ACKed 200 (RFC 3261 §13.3.1.4); stop once the
         ACK cleared the entry *)
      match Hashtbl.find_opt t.retrans txn_key with
      | Some (dst, wire) ->
          ignore (Transport.send t.transport ~src:"server" ~dst wire);
          true
      | None -> false);
  (match config.pattern with
  | Per_request -> ()
  | Pool n ->
      t.pool :=
        Some
          (Raceguard_vm.Thread_pool.create ~name:"sip-pool"
             ~workers:n ~queue_capacity:32
             ~handler:(fun ctx -> run_ctx t ctx)
             ()));
  t.listener <- Api.spawn ~loc:(lc "start" 380) ~name:"listener" (listener_body t);
  t

(** Ask the listener to stop (any VM thread may call this).  Admin
    traffic bypasses fault injection, so the stop datagram always
    arrives. *)
let post_stop t =
  ignore (Transport.send t.transport ~src:"admin" ~dst:"server" stop_wire)

(** Shut the server down.  With [config.shutdown_racy] the statistics
    block is destroyed {e before} the logger thread is joined — bug B3:
    the logger's final flush still bumps a counter inside it. *)
let shutdown t =
  let loc = lc "shutdown" 390 in
  Api.with_frame loc @@ fun () ->
  Api.join ~loc:(lc "shutdown" 392) t.listener;
  (* wait for in-flight requests *)
  List.iter (fun tid -> Api.join ~loc:(lc "shutdown" 394) tid) t.workers;
  (match !(t.pool) with Some pool -> Raceguard_vm.Thread_pool.shutdown pool | None -> ());
  Timer_wheel.stop t.timer;
  Timer_wheel.join t.timer;
  (match t.txn_cache with Some cache -> Txn_cache.destroy cache | None -> ());
  Hashtbl.reset t.retrans;
  Domain_data.stop t.domain_data;
  Domain_data.join t.domain_data;
  History.clear t.history;
  if t.config.shutdown_racy then begin
    (* B3: tear down Stats, then stop/join the logger that uses it *)
    Stats.destroy t.stats;
    Logger.stop t.logger;
    Logger.join t.logger
  end
  else begin
    Logger.stop t.logger;
    Logger.join t.logger;
    Stats.destroy t.stats
  end;
  (* either way the logger's destructor flushes leftovers: B3 reorders
     destruction but must not silently drop enqueued lines *)
  Logger.destroy t.logger;
  match t.watchdog with
  | Some w ->
      Watchdog.stop w;
      Watchdog.join w
  | None -> ()

let bound_aors t = Registrar.bound_aors t.registrar
let registrar_audit t = Registrar.audit t.registrar
let registrar_shard_count t = Registrar.shard_count t.registrar
