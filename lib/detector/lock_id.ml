(** Unified lock identifiers for lock-sets.

    The detector mixes three kinds of locks in one set:
    - the virtual {b hardware bus lock} (uid 0) — not a real lock in
      the program, but the detector models the x86 [LOCK] prefix as one
      (either as a plain mutex, the original Helgrind behaviour, or as
      a read-write lock, the paper's HWLC correction);
    - program {b mutexes} (odd uids);
    - program {b read-write locks} (even uids > 0). *)

type t = int

let bus : t = 0
let of_mutex m : t = (2 * m) + 1
let of_rwlock r : t = (2 * r) + 2

let pp ~name_of ppf (t : t) =
  if t = 0 then Fmt.string ppf "<bus-lock>" else Fmt.string ppf (name_of t)

let of_sync_ref (r : Raceguard_vm.Event.sync_ref) : t option =
  match r with
  | Raceguard_vm.Event.Mutex m -> Some (of_mutex m)
  | Raceguard_vm.Event.Rwlock rw -> Some (of_rwlock rw)
  | Raceguard_vm.Event.Cond _ | Raceguard_vm.Event.Sem _ -> None
