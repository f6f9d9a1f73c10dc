(** The operands the VM's operations share with its event stream: lock
    modes and client requests.  The operations themselves are plain
    calls ({!Engine.Op}, behind {!Api}) on the calling simulated thread.
    As under Valgrind, the "binary" runs on a virtual machine that
    observes every memory access and every call into the threading
    library, serialising all threads onto a single carrier thread ({i
    "the virtual machine in itself is single-threaded"}, §3.3 of the
    paper). *)

module Loc = Raceguard_util.Loc

(** Acquisition mode for read-write locks.  A plain mutex always counts
    as [Write_mode]. *)
type mode = Read_mode | Write_mode

let pp_mode ppf = function
  | Read_mode -> Fmt.string ppf "read"
  | Write_mode -> Fmt.string ppf "write"

(** Client requests: user-space calls that are no-ops under normal
    execution but are recognised by the VM and forwarded to tools —
    the analogue of Valgrind's [VALGRIND_HG_*] macros (Figure 4). *)
type client_request =
  | Destruct of { addr : int; len : int }
      (** [VALGRIND_HG_DESTRUCT]: the object at [addr..addr+len-1] is
          about to be destroyed by the calling thread; mark it
          exclusively owned. *)
  | Benign_race of { addr : int; len : int }
      (** Mark a range as intentionally racy (suppress reports). *)
  | Happens_before of { tag : int }
      (** [ANNOTATE_HAPPENS_BEFORE]: everything this thread did so far
          is ordered before whoever observes [tag] with
          {!Happens_after}.  The §5 "higher level synchronisation"
          extension: message queues annotate their put/get with the
          payload as tag, making ownership transfer through queues
          visible to the thread-segment graph. *)
  | Happens_after of { tag : int }  (** [ANNOTATE_HAPPENS_AFTER] *)
