(** FastTrack-style epoch-based happens-before race detection.

    Same detection semantics as {!Djit} — report an access iff it is
    concurrent with a previous conflicting access, with the same
    first-report-per-location behaviour and byte-identical reports —
    but with FastTrack's representation (Flanagan & Freund, surveyed in
    PAPERS.md): the overwhelmingly common non-racy access is decided by
    O(1) packed-epoch ({!Epoch}) comparisons over a dense shadow array
    instead of DJIT's hashtable cells and per-read list surgery.

    Per-word state machine:

    - {b write epoch}: the last write is always a single epoch — a
      write either races with everything unordered after it or clears
      the read state, so a full clock is never needed;
    - {b read-exclusive}: reads by one thread (or totally ordered reads
      by several — each new read that happens-after the stored one
      {e replaces} it) stay a single epoch.  Replacement is lossless:
      clocks only grow and transfer whole along HB edges, so any later
      access ordered after the replacing read is ordered after the
      replaced one too (DESIGN.md §14 states the lemma);
    - {b read-shared}: only a genuinely concurrent read promotes the
      cell to a read vector — per-thread (clk, loc, recency) triples
      that carry exactly the information DJIT's read list holds, so
      racing writes pick the same previous access and render the same
      report.  Reads in this state are still O(1) stores;
    - {b demotion}: periodically (every [demote_check] accesses to a
      hot shared cell) a read that happens-after every recorded read
      demotes the cell back to its single epoch — read-mostly words
      that go through a synchronisation front return to the cheap
      representation instead of paying the vector forever.  The same
      replacement lemma makes this report-preserving.

    The {!unordered_now} probe is the {!Hybrid} composition's
    happens-before gate ({!gate}); cells retired by [first_only] answer
    [false]. *)

module Loc = Raceguard_util.Loc
module Vm = Raceguard_vm
module Vc = Vector_clock
module Metrics = Raceguard_obs.Metrics
open Vm.Event

(* Process-global instruments (state domain-local), the only epoch-hit,
   promotion and demotion counts: the bench and the tests read one
   detector's by diffing snapshots around its run. *)
let m_accesses = Metrics.counter "detector.fasttrack.accesses_checked"
let m_epoch_hits = Metrics.counter "detector.fasttrack.epoch_hits"
let m_promotions = Metrics.counter "detector.fasttrack.read_promotions"
let m_demotions = Metrics.counter "detector.fasttrack.read_demotions"

(* read vector of a promoted (read-shared) cell: per-tid last-read
   clock/site plus a per-cell recency sequence.  Equivalent to DJIT's
   "one read per tid since the last write" list — the list is exactly
   the triples ordered by decreasing [s_seq] — so racing writes report
   the same previous access. *)
type shared = {
  mutable s_clk : int array;  (** tid -> last read clock (0 = absent) *)
  mutable s_loc : Loc.t array;
  mutable s_seq : int array;  (** tid -> recency stamp (0 = absent) *)
  mutable s_next : int;  (** next recency stamp, starts at 1 *)
}

type cell = {
  mutable we : Epoch.t;  (** last write ({!Epoch.none} = never written) *)
  mutable w_loc : Loc.t;
  mutable re : Epoch.t;  (** read-exclusive epoch (unused when shared) *)
  mutable r_loc : Loc.t;
  mutable r_clean : bool;
      (** the last read slow-check at epoch [re] against the current
          [we] reported nothing — a same-epoch read may skip the
          write-race check without losing report occurrences.  Cleared
          by every write. *)
  mutable shared : shared option;  (** read vector once promoted *)
  mutable dead : bool;  (** stop checking after the first report *)
  mutable n_acc : int;  (** per-word access counter (demotion cadence) *)
}

type t = {
  first_only : bool;  (** stop checking a location after its first report *)
  reports : bool;  (** [false] for the {!gate}: the epochs are kept, no report is built *)
  demote_check : int;
      (** attempt read-shared → epoch demotion every [demote_check]-th
          access to a shared cell (power of two; 0 = never, classic
          FastTrack).  Demotion is report-preserving; the setting only
          moves the representation-maintenance cost. *)
  clocks : Hb_clocks.t;
  mutable shadow : cell array;  (** dense, indexed by word address *)
  collector : Report.collector;
}

let create ?(first_only = true) ?(demote_check = 32) ?on_report () =
  {
    first_only;
    reports = true;
    demote_check;
    clocks = Hb_clocks.create ();
    shadow = [||];
    collector = Report.collector ?on_report ();
  }

let gate () = { (create ~first_only:false ()) with reports = false }

let locations t = Report.locations t.collector
let location_count t = Report.location_count t.collector
let collector t = t.collector

let thread_vc t tid = Hb_clocks.thread_vc t.clocks tid

let fresh_cell () =
  {
    we = Epoch.none;
    w_loc = Loc.unknown;
    re = Epoch.none;
    r_loc = Loc.unknown;
    r_clean = false;
    shared = None;
    dead = false;
    n_acc = 0;
  }

let cell t addr =
  if addr >= Array.length t.shadow then
    t.shadow <- Dense.grow t.shadow addr ~floor:4096 fresh_cell;
  Array.unsafe_get t.shadow addr

let reset_cell c =
  c.we <- Epoch.none;
  c.re <- Epoch.none;
  c.r_clean <- false;
  c.shared <- None;
  c.dead <- false;
  c.n_acc <- 0

let report t ctx ~kind ~tid ~addr ~loc ~prev_tid ~prev_loc =
  if t.reports then
    Report.add t.collector
      (Report.of_access ctx ~kind ~tid ~addr ~loc (Report.unordered_detail ~prev_tid ~prev_loc))

let grow_shared s tid =
  if tid >= Array.length s.s_clk then begin
    s.s_clk <- Dense.grow s.s_clk tid ~floor:8 (fun () -> 0);
    s.s_seq <- Dense.grow s.s_seq tid ~floor:8 (fun () -> 0);
    s.s_loc <- Dense.grow s.s_loc tid ~floor:8 (fun () -> Loc.unknown)
  end

let record_shared s ~tid ~clk ~loc =
  grow_shared s tid;
  s.s_clk.(tid) <- clk;
  s.s_loc.(tid) <- loc;
  s.s_seq.(tid) <- s.s_next;
  s.s_next <- s.s_next + 1

(* does every read recorded in [s] happen-before [me]?  The demotion
   guard — O(recorded tids), attempted only every [demote_check]-th
   access to the cell. *)
let all_reads_ordered s me =
  let n = Array.length s.s_clk in
  let rec go u = u >= n || ((s.s_seq.(u) = 0 || s.s_clk.(u) <= Vc.get me u) && go (u + 1)) in
  go 0

(* the read racing a write in shared state, DJIT-equivalent: DJIT scans
   its recency-ordered list and reports the first unordered entry, i.e.
   the unordered read with the highest recency stamp *)
let find_racing_read s ~tid me =
  let n = Array.length s.s_clk in
  let best = ref (-1) and best_seq = ref 0 in
  for u = 0 to n - 1 do
    if u <> tid && s.s_seq.(u) > !best_seq && s.s_clk.(u) > Vc.get me u then begin
      best := u;
      best_seq := s.s_seq.(u)
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* The per-access state machine                                        *)
(* ------------------------------------------------------------------ *)

let check_read t ctx ~tid ~addr ~loc =
  Metrics.incr m_accesses;
  let c = cell t addr in
  if not c.dead then begin
    c.n_acc <- c.n_acc + 1;
    let me = thread_vc t tid in
    let cur = Epoch.make ~tid ~clk:(Vc.get me tid) in
    match c.shared with
    | None when c.re = cur && c.r_clean ->
        (* read-same-epoch: the previous slow check at this epoch
           vouched there is no racing write (and none was stored
           since), and re-recording the read is idempotent up to the
           site, which a later racing write must render freshly *)
        c.r_loc <- loc;
        Metrics.incr m_epoch_hits
    | None ->
        (* write-race check is one epoch compare *)
        if
          (not (Epoch.is_none c.we))
          && Epoch.tid c.we <> tid
          && not (Epoch.ordered_before c.we me)
        then begin
          report t ctx ~kind:Report.Race_read ~tid ~addr ~loc ~prev_tid:(Epoch.tid c.we)
            ~prev_loc:c.w_loc;
          if t.first_only then c.dead <- true
        end
        else c.r_clean <- true;
        if not c.dead then
          if Epoch.is_none c.re || Epoch.tid c.re = tid || Epoch.ordered_before c.re me
          then begin
            (* first read, same reader, or ordered reads: replace —
               still one epoch *)
            c.re <- cur;
            c.r_loc <- loc;
            Metrics.incr m_epoch_hits
          end
          else begin
            (* genuinely concurrent second reader: lazily promote to a
               read vector, previous reader first in recency order *)
            let s =
              {
                s_clk = Array.make 8 0;
                s_loc = Array.make 8 Loc.unknown;
                s_seq = Array.make 8 0;
                s_next = 1;
              }
            in
            record_shared s ~tid:(Epoch.tid c.re) ~clk:(Epoch.clk c.re) ~loc:c.r_loc;
            record_shared s ~tid ~clk:(Vc.get me tid) ~loc;
            c.shared <- Some s;
            c.re <- Epoch.none;
            c.r_clean <- false;
            Metrics.incr m_promotions
          end
    | Some s ->
        if
          (not (Epoch.is_none c.we))
          && Epoch.tid c.we <> tid
          && not (Epoch.ordered_before c.we me)
        then begin
          report t ctx ~kind:Report.Race_read ~tid ~addr ~loc ~prev_tid:(Epoch.tid c.we)
            ~prev_loc:c.w_loc;
          if t.first_only then c.dead <- true
        end;
        if not c.dead then begin
          record_shared s ~tid ~clk:(Vc.get me tid) ~loc;
          (* adaptive demotion: every [demote_check]-th access to this
             hot cell, check whether this read dominates the vector —
             if so the single epoch carries the same information *)
          if
            t.demote_check > 0
            && c.n_acc land (t.demote_check - 1) = 0
            && all_reads_ordered s me
          then begin
            c.shared <- None;
            c.re <- cur;
            c.r_loc <- loc;
            c.r_clean <- false;
            Metrics.incr m_demotions
          end
        end
  end

let check_write t ctx ~tid ~addr ~loc =
  Metrics.incr m_accesses;
  let c = cell t addr in
  if not c.dead then begin
    c.n_acc <- c.n_acc + 1;
    let me = thread_vc t tid in
    let clk = Vc.get me tid in
    let cur = Epoch.make ~tid ~clk in
    if c.we = cur && c.shared = None && (Epoch.is_none c.re || Epoch.tid c.re = tid) then begin
      (* write-same-epoch: the only possible conflicts are this
         thread's own accesses; DJIT would re-store the write and
         clear the reads — one compare plus three stores *)
      c.w_loc <- loc;
      c.re <- Epoch.none;
      c.r_clean <- false;
      Metrics.incr m_epoch_hits
    end
    else begin
      (* conflict scan in DJIT's order: the last write first, then the
         reads in recency order *)
      let slow_scan = c.shared <> None in
      (if
         (not (Epoch.is_none c.we))
         && Epoch.tid c.we <> tid
         && not (Epoch.ordered_before c.we me)
       then begin
         report t ctx ~kind:Report.Race_write ~tid ~addr ~loc ~prev_tid:(Epoch.tid c.we)
           ~prev_loc:c.w_loc;
         if t.first_only then c.dead <- true
       end
       else
         match c.shared with
         | None ->
             if
               (not (Epoch.is_none c.re))
               && Epoch.tid c.re <> tid
               && not (Epoch.ordered_before c.re me)
             then begin
               report t ctx ~kind:Report.Race_write ~tid ~addr ~loc
                 ~prev_tid:(Epoch.tid c.re) ~prev_loc:c.r_loc;
               if t.first_only then c.dead <- true
             end
         | Some s ->
             let u = find_racing_read s ~tid me in
             if u >= 0 then begin
               report t ctx ~kind:Report.Race_write ~tid ~addr ~loc ~prev_tid:u
                 ~prev_loc:s.s_loc.(u);
               if t.first_only then c.dead <- true
             end);
      if not c.dead then begin
        c.we <- cur;
        c.w_loc <- loc;
        c.re <- Epoch.none;
        c.r_clean <- false;
        c.shared <- None;
        if not slow_scan then begin
          Metrics.incr m_epoch_hits
        end
      end
    end
  end

(** Composition probe (the {!Hybrid} gate).  Dead cells answer
    [false]: once [first_only] stops updating a cell, its stale state
    must not keep gating lock-set warnings. *)
let unordered_now t ~tid ~addr ~write =
  if addr >= Array.length t.shadow then false
  else
    let c = Array.unsafe_get t.shadow addr in
    if c.dead then false
    else
      let me = thread_vc t tid in
      let unordered e = Epoch.tid e <> tid && not (Epoch.ordered_before e me) in
      ((not (Epoch.is_none c.we)) && unordered c.we)
      || write
         &&
         match c.shared with
         | None -> (not (Epoch.is_none c.re)) && unordered c.re
         | Some s ->
             let n = Array.length s.s_clk in
             let rec go u =
               u < n
               && ((u <> tid && s.s_seq.(u) > 0 && s.s_clk.(u) > Vc.get me u) || go (u + 1))
             in
             go 0

let on_event t (ctx : Vm.Tool.ctx) (e : Vm.Event.t) =
  Hb_clocks.on_event t.clocks e;
  match e with
  | E_read { tid; addr; loc; _ } -> check_read t ctx ~tid ~addr ~loc
  | E_write { tid; addr; loc; _ } -> check_write t ctx ~tid ~addr ~loc
  | E_alloc { addr; len; _ } -> Dense.iter_range t.shadow ~addr ~len reset_cell
  | E_thread_start _ | E_thread_exit _ | E_join _ | E_spawn _ | E_free _ | E_sync_create _
  | E_acquire _ | E_release _ | E_cond_signal _ | E_cond_wait_pre _ | E_cond_wait_post _
  | E_sem_post _ | E_sem_wait_post _ | E_client _ ->
      ()

let tool t = Vm.Tool.make ~name:"fasttrack" ~on_event:(on_event t)
