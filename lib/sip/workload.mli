(** The SIPp stand-in: scripted UAC drivers and the eight test cases of
    the paper's evaluation (§3.3).

    Each driver runs as a VM thread with its own transport endpoint,
    sends scripted requests, checks the responses (host-side oracle),
    and the test case joins them all before shutting the server down. *)

type driver

val make_driver : transport:Transport.t -> string -> driver
(** Call from inside the VM (creates the endpoint's semaphore). *)

(** {1 Low-level driver operations} *)

val send : driver -> string -> unit
(** Send a raw wire message to the server. *)

val recv_response : driver -> string
(** Wait for one response and return its wire text. *)

val request :
  meth:Sip_msg.meth ->
  uri:string ->
  from:string ->
  to_:string ->
  call_id:string ->
  cseq:int ->
  ?contact:string ->
  ?expires:int ->
  ?auth:int ->
  unit ->
  string
(** Build a request wire message. *)

val expect : driver -> int -> unit
(** Wait for one response and record an oracle failure unless its
    status is the expected one. *)

(** {1 Scenario building blocks} *)

val do_register :
  driver -> user:string -> domain:string -> cseq:int -> ?expires:int -> unit -> unit

val do_unregister : driver -> user:string -> domain:string -> cseq:int -> unit

val do_register_auth : driver -> user:string -> domain:string -> cseq:int -> unit
(** Registration against a server with [require_auth]: expect the 401
    digest challenge, compute the response, retry, expect 200. *)

val do_options : driver -> domain:string -> cseq:int -> unit

val do_call :
  driver ->
  caller:string ->
  callee:string ->
  domain:string ->
  call_id:string ->
  cseq:int ->
  ?talk:int ->
  unit ->
  unit
(** One complete call: INVITE (180 + 200), ACK, pause, BYE (200). *)

val do_failed_call :
  driver -> caller:string -> callee:string -> domain:string -> call_id:string -> cseq:int -> unit

val do_cancelled_call :
  driver -> caller:string -> callee:string -> domain:string -> call_id:string -> cseq:int -> unit

val do_malformed : driver -> cseq:int -> unit

(** {1 Test cases} *)

type test_case = {
  tc_name : string;
  tc_description : string;
  tc_drivers : (string * (driver -> unit)) list;
}

(** [t1] REGISTER burst + refreshes + OPTIONS pings. *)
val t1 : test_case

(** [t2] basic INVITE/ACK/BYE calls. *)
val t2 : test_case

(** [t3] OPTIONS keep-alives only — the lightest case. *)
val t3 : test_case

(** [t4] mixed REGISTER + calls, three agents. *)
val t4 : test_case

(** [t5] concurrent calls + re-registrations — the heaviest case. *)
val t5 : test_case

(** [t6] registrar churn (register/refresh/unregister). *)
val t6 : test_case

(** [t7] error flows: malformed datagrams, 404s, stray BYEs. *)
val t7 : test_case

(** [t8] INVITE/CANCEL teardown flows. *)
val t8 : test_case

val all_test_cases : test_case list

(** {1 Running} *)

type run_result = {
  r_failures : string list;  (** oracle violations across all drivers *)
  r_responses : int;
  r_requests_handled : int;
}

val run_test_case :
  transport:Transport.t -> server_config:Proxy.config -> test_case -> unit -> run_result
(** Body to execute as the VM main thread: start the server, run every
    driver in its own thread, join them, stop and shut down. *)

(** {1 Chaos workload}

    Fault-tolerant drivers for runs with datagram faults injected: every
    request is retransmitted with bounded backoff until a matching final
    response arrives, 503s are honoured and retried, duplicates are
    discarded.  The server's resilience is a separate toggle — the
    asymmetry the chaos matrix measures. *)

type chaos_opts = {
  co_max_attempts : int;  (** per transaction, before declaring it unanswered *)
  co_attempt_timeout : int;  (** base wait (ticks) before retransmitting *)
}

val default_chaos_opts : chaos_opts

val chaos_test_cases : chaos_opts -> test_case list
(** The T1–T8 shapes with hardened drivers and driver-disjoint users
    (reduced iteration counts — each matrix cell is one full run). *)

type chaos_run_result = {
  cr_base : run_result;
  cr_acked_regs : (string * bool) list;
      (** chronological (aor, should-be-bound): every REGISTER /
          unREGISTER the server acknowledged with a 200 *)
  cr_shed_seen : int;  (** 503s received by drivers *)
  cr_unanswered : int;  (** transactions with no final after all retries *)
  cr_bound : string list;  (** server-side bound AORs after shutdown *)
  cr_sheds : int;  (** server-side deliberate 503 count *)
  cr_cache_hits : int;  (** retransmissions absorbed by the cache *)
  cr_retransmits : int;  (** timer-driven 200 retransmissions *)
  cr_shard_audit : string list;
      (** {!Registrar.audit} violations after shutdown (empty when the
          registrar kept its invariants — always, when unsharded) *)
  cr_shard_count : int;  (** final shard count (1 when unsharded) *)
  cr_resizes : int;  (** online shard-doublings performed *)
  cr_migrations : int;  (** bindings moved shard-to-shard *)
}

val run_chaos_test_case :
  transport:Transport.t ->
  server_config:Proxy.config ->
  test_case ->
  unit ->
  chaos_run_result
(** Chaos variant of {!run_test_case}: same lifecycle, hardened
    drivers, richer post-run evidence for the invariant oracles. *)

(** {1 The scenario DSL ([raceguard-scenario/1])}

    Data-driven call-flow scenarios: T9+ storm workloads are JSON
    documents compiled onto the hardened chaos drivers.  String fields
    substitute [%i] (innermost repeat index) and [%a] (agent name);
    CSeq numbers are assigned per agent from disjoint ranges. *)
module Scenario : sig
  type step =
    | Register of { user : string; domain : string; expires : int }
    | Unregister of { user : string; domain : string }
    | Options of { domain : string }
    | Call of { caller : string; callee : string; domain : string; talk : int }
    | Sleep of int
    | Repeat of { count : int; body : step list }

  type agent = { ag_name : string; ag_steps : step list }

  type shard_spec = { sp_initial : int; sp_grow_at : int; sp_max_shards : int }

  type t = {
    sc_name : string;
    sc_description : string;
    sc_sharding : shard_spec option;
        (** when set, the scenario runs against a sharded registrar
            ([Resilient] with the chaos resilience toggle on,
            [Legacy_striped] with it off) *)
    sc_agents : agent list;
  }

  val schema : string
  (** ["raceguard-scenario/1"] *)

  val sharding : resilient:bool -> t -> Registrar.sharding
  (** The registrar configuration this scenario's cells run against. *)

  val to_test_case : chaos_opts -> t -> test_case
  (** Compile onto the hardened chaos drivers (one thread per agent). *)

  val to_json : t -> Raceguard_obs.Json.t

  val of_json : Raceguard_obs.Json.t -> (t, string) result
  (** Fails closed: an [Error] naming the field, and the value where
      there is one, unless every integer field is integral and in its
      range — [expires], [talk], [ticks] and [grow_at] 0–1,000,000,
      [count] 0–1,000, [initial] 1–256, [max_shards] [initial]–256 —
      and no agent runs more than 100,000 steps once its repeat counts
      are multiplied through the nesting. *)

  val of_string : string -> (t, string) result
end
