module Rng = Raceguard_util.Rng
module Metrics = Raceguard_obs.Metrics
module Json = Raceguard_obs.Json

exception Out_of_memory

type datagram_decision =
  | Deliver
  | Drop
  | Duplicate
  | Delay_by of int
  | Corrupt_with of int

type t = {
  i_plan : Plan.t;
  i_off : bool;
  rng_datagram : Rng.t;
  rng_alloc : Rng.t;
  rng_spawn : Rng.t;
  rng_lock : Rng.t;
  mutable allocs_seen : int;
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_delayed : int;
  mutable n_corrupted : int;
  mutable n_alloc_failures : int;
  mutable n_spawn_delays : int;
  mutable n_lock_delays : int;
}

(* Process-wide registry counters: one per category, shared by every
   injector instance (per-run deltas come from Metrics.diff). *)
let m_dropped = Metrics.counter "faults.injected.datagram_drop"
let m_duplicated = Metrics.counter "faults.injected.datagram_duplicate"
let m_delayed = Metrics.counter "faults.injected.datagram_delay"
let m_corrupted = Metrics.counter "faults.injected.datagram_corrupt"
let m_alloc = Metrics.counter "faults.injected.alloc_failure"
let m_spawn = Metrics.counter "faults.injected.spawn_delay"
let m_lock = Metrics.counter "faults.injected.lock_delay"

let hash_name name =
  (* djb2; mixes the plan identity into the seed so two plans under
     the same run seed draw distinct streams. *)
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) name;
  !h

let create ~seed ~plan =
  let root = Rng.create ~seed:(seed lxor (hash_name plan.Plan.p_name * 2654435761)) in
  (* Fixed split order — part of the determinism contract. *)
  let rng_datagram = Rng.split root in
  let rng_alloc = Rng.split root in
  let rng_spawn = Rng.split root in
  let rng_lock = Rng.split root in
  {
    i_plan = plan;
    i_off = Plan.is_none plan;
    rng_datagram;
    rng_alloc;
    rng_spawn;
    rng_lock;
    allocs_seen = 0;
    n_dropped = 0;
    n_duplicated = 0;
    n_delayed = 0;
    n_corrupted = 0;
    n_alloc_failures = 0;
    n_spawn_delays = 0;
    n_lock_delays = 0;
  }

let plan t = t.i_plan
let is_off t = t.i_off

let roll rng per_mille = per_mille > 0 && Rng.chance rng ~num:per_mille ~den:1000

let ticks_in rng (lo, hi) =
  if hi <= lo then max 1 lo else Rng.int_in_range rng ~lo ~hi

let datagram t =
  if t.i_off then Deliver
  else begin
    let d = t.i_plan.Plan.p_datagram in
    (* One category per datagram, checked in fixed order; each check
       consumes from the same stream so outcomes stay reproducible. *)
    if roll t.rng_datagram d.Plan.drop then begin
      t.n_dropped <- t.n_dropped + 1;
      Metrics.incr m_dropped;
      Drop
    end
    else if roll t.rng_datagram d.Plan.duplicate then begin
      t.n_duplicated <- t.n_duplicated + 1;
      Metrics.incr m_duplicated;
      Duplicate
    end
    else if roll t.rng_datagram d.Plan.delay then begin
      t.n_delayed <- t.n_delayed + 1;
      Metrics.incr m_delayed;
      Delay_by (ticks_in t.rng_datagram d.Plan.delay_ticks)
    end
    else if roll t.rng_datagram d.Plan.reorder then begin
      t.n_delayed <- t.n_delayed + 1;
      Metrics.incr m_delayed;
      Delay_by (ticks_in t.rng_datagram d.Plan.delay_ticks)
    end
    else if roll t.rng_datagram d.Plan.corrupt then begin
      t.n_corrupted <- t.n_corrupted + 1;
      Metrics.incr m_corrupted;
      Corrupt_with (1 + Rng.int t.rng_datagram 255)
    end
    else Deliver
  end

let alloc_fails t =
  if t.i_off || t.i_plan.Plan.p_alloc_failure = 0 then false
  else begin
    t.allocs_seen <- t.allocs_seen + 1;
    if t.allocs_seen <= t.i_plan.Plan.p_alloc_failure_after then false
    else if roll t.rng_alloc t.i_plan.Plan.p_alloc_failure then begin
      t.n_alloc_failures <- t.n_alloc_failures + 1;
      Metrics.incr m_alloc;
      true
    end
    else false
  end

let spawn_delay t =
  if t.i_off || not (roll t.rng_spawn t.i_plan.Plan.p_spawn_delay) then 0
  else begin
    t.n_spawn_delays <- t.n_spawn_delays + 1;
    Metrics.incr m_spawn;
    ticks_in t.rng_spawn t.i_plan.Plan.p_spawn_delay_ticks
  end

let lock_delay t =
  if t.i_off || not (roll t.rng_lock t.i_plan.Plan.p_lock_delay) then 0
  else begin
    t.n_lock_delays <- t.n_lock_delays + 1;
    Metrics.incr m_lock;
    ticks_in t.rng_lock t.i_plan.Plan.p_lock_delay_ticks
  end

let corrupt_wire ~key wire =
  (* Flip a few bytes at key-derived positions; keep length so buffer
     bookkeeping downstream is unaffected.  Deterministic in (key, wire). *)
  let b = Bytes.of_string wire in
  let n = Bytes.length b in
  if n > 0 then begin
    let flips = 1 + (key land 3) in
    for i = 0 to flips - 1 do
      let pos = (key * (i + 7) * 31) mod n in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (key land 0x7F) lxor 0x20))
    done
  end;
  Bytes.to_string b

type counts = {
  c_dropped : int;
  c_duplicated : int;
  c_delayed : int;
  c_corrupted : int;
  c_alloc_failures : int;
  c_spawn_delays : int;
  c_lock_delays : int;
}

let counts t =
  {
    c_dropped = t.n_dropped;
    c_duplicated = t.n_duplicated;
    c_delayed = t.n_delayed;
    c_corrupted = t.n_corrupted;
    c_alloc_failures = t.n_alloc_failures;
    c_spawn_delays = t.n_spawn_delays;
    c_lock_delays = t.n_lock_delays;
  }

let total c =
  c.c_dropped + c.c_duplicated + c.c_delayed + c.c_corrupted
  + c.c_alloc_failures + c.c_spawn_delays + c.c_lock_delays

let counts_to_json c =
  Json.Obj
    [
      ("dropped", Json.int c.c_dropped);
      ("duplicated", Json.int c.c_duplicated);
      ("delayed", Json.int c.c_delayed);
      ("corrupted", Json.int c.c_corrupted);
      ("alloc_failures", Json.int c.c_alloc_failures);
      ("spawn_delays", Json.int c.c_spawn_delays);
      ("lock_delays", Json.int c.c_lock_delays);
    ]
