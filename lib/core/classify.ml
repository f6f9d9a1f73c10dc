(** Classification of reported locations.

    Figure 5 splits every test case's reports into three populations —
    hardware-bus-lock false positives, destructor false positives, and
    the rest ("correctly reported data races") — which the paper
    obtains by {e differencing} the three detector configurations.  We
    do the same: a location is a bus-lock FP if the Original
    configuration reports it and HWLC does not, a destructor FP if HWLC
    reports it and HWLC+DR does not, and remaining if HWLC+DR still
    reports it.

    On top of that, the ground-truth oracle ({!Raceguard_sip.Bugs})
    splits the remaining population into identified real bugs and
    other reports (queue-handoff false positives etc.) — information
    the paper's authors had to produce by reading hundreds of warnings
    by hand. *)

module Det = Raceguard_detector
module Sip = Raceguard_sip

module Sig_set = Det.Report.Sig_set

let signature_set locations =
  List.fold_left
    (fun acc ((r : Det.Report.t), _count) -> Sig_set.add (Det.Report.signature r) acc)
    Sig_set.empty locations

type split = {
  hw_lock_fp : int;  (** removed by the HWLC correction *)
  destructor_fp : int;  (** removed by the DR annotation *)
  remaining : int;  (** still reported by HWLC+DR *)
  remaining_true : int;  (** remaining & matching a known injected bug *)
  remaining_recovery : int;
      (** remaining & running through the resilience machinery
          (recovery-path traffic, not an injected bug) *)
  remaining_other : int;  (** remaining, not attributed (pool FPs etc.) *)
  total : int;
}

let split ~original ~hwlc ~hwlc_dr =
  let so = signature_set original
  and sh = signature_set hwlc
  and sd = signature_set hwlc_dr in
  let hw_lock_fp = Sig_set.cardinal (Sig_set.diff so sh) in
  let destructor_fp = Sig_set.cardinal (Sig_set.diff sh sd) in
  let is_true (r : Det.Report.t) = Sip.Bugs.identify r.stack <> [] in
  let is_recovery (r : Det.Report.t) = (not (is_true r)) && Sip.Bugs.recovery_path r.stack in
  let remaining_true =
    List.length (List.filter (fun (r, _) -> is_true r) hwlc_dr)
  in
  let remaining_recovery =
    List.length (List.filter (fun (r, _) -> is_recovery r) hwlc_dr)
  in
  let remaining = List.length hwlc_dr in
  {
    hw_lock_fp;
    destructor_fp;
    remaining;
    remaining_true;
    remaining_recovery;
    remaining_other = remaining - remaining_true - remaining_recovery;
    total = Sig_set.cardinal so;
  }

let reduction_pct s =
  if s.total = 0 then 0.0
  else 100.0 *. float_of_int (s.total - s.remaining) /. float_of_int s.total

(** Which injected bugs does a location list witness? *)
let bugs_found locations =
  List.concat_map (fun ((r : Det.Report.t), _) -> Sip.Bugs.identify r.stack) locations
  |> List.sort_uniq compare
