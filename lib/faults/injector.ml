module Rng = Raceguard_util.Rng
module Metrics = Raceguard_obs.Metrics

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
}

(* The only count of what fired: one registry counter per category,
   shared by every injector instance.  A run's counts are its
   Metrics.diff delta (Runner.result.metrics). *)
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
      Metrics.incr m_dropped;
      Drop
    end
    else if roll t.rng_datagram d.Plan.duplicate then begin
      Metrics.incr m_duplicated;
      Duplicate
    end
    else if roll t.rng_datagram d.Plan.delay then begin
      Metrics.incr m_delayed;
      Delay_by (ticks_in t.rng_datagram d.Plan.delay_ticks)
    end
    else if roll t.rng_datagram d.Plan.reorder then begin
      Metrics.incr m_delayed;
      Delay_by (ticks_in t.rng_datagram d.Plan.delay_ticks)
    end
    else if roll t.rng_datagram d.Plan.corrupt then begin
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
      Metrics.incr m_alloc;
      true
    end
    else false
  end

let spawn_delay t =
  if t.i_off || not (roll t.rng_spawn t.i_plan.Plan.p_spawn_delay) then 0
  else begin
    Metrics.incr m_spawn;
    ticks_in t.rng_spawn t.i_plan.Plan.p_spawn_delay_ticks
  end

let lock_delay t =
  if t.i_off || not (roll t.rng_lock t.i_plan.Plan.p_lock_delay) then 0
  else begin
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
