(** Hybrid lock-set × happens-before detection — the Multi-Race /
    O'Callahan-Choi combination the paper surveys in §2.2.

    "Multi-Race tries to improve the data race detection capabilities
    by combining enhanced versions of Lock-set and DJIT into a common
    framework"; the hybrid detector of [12] gates lock-set warnings
    with a vector-clock happens-before check on synchronisation
    primitives.

    This implementation composes two real engines on one event stream:
    a {!Helgrind} instance (HWLC+DR) performs the lock-set analysis,
    and each of its candidate warnings is admitted only if a
    {!Fasttrack} instance (which honours condition-variable and
    semaphore edges) confirms the access is {e concurrent} with a
    previous conflicting access.  FastTrack's epochs answer that question exactly as DJIT's
    vector clocks do (DESIGN.md §14).  Lock-discipline violations whose
    accesses happened to be ordered on this execution are therefore
    suppressed — precision up, at the price of the happens-before
    family's schedule-dependence (the §2.2 trade-off, measurable in the
    [baselines] experiment). *)

module Vm = Raceguard_vm

type t = { lockset : Helgrind.t; hb : Fasttrack.t }

let create ?on_report () =
  let lockset = Helgrind.create ?on_report Helgrind.hwlc_dr in
  let hb = Fasttrack.gate () in
  (* the gate: a lock-set warning survives only when the access is
     genuinely unordered with a previous conflicting access *)
  Helgrind.set_warning_filter lockset (fun ~tid ~addr ~kind ->
      let write = match kind with Report.Race_write -> true | _ -> false in
      Fasttrack.unordered_now hb ~tid ~addr ~write);
  { lockset; hb }

(* event order matters: the lock-set side (and its gate probing the
   HB state of all {e previous} accesses) runs first, then the HB side
   absorbs the current event. *)
let on_event t ctx e =
  Helgrind.on_event t.lockset ctx e;
  Fasttrack.on_event t.hb ctx e

let tool t = Vm.Tool.make ~name:"hybrid" ~on_event:(on_event t)

let location_count t = Helgrind.location_count t.lockset
let collector t = Helgrind.collector t.lockset
