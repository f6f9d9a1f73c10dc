(** Vector clocks for happens-before based detection (DJIT, §2.2).

    A clock maps thread ids to logical timestamps.  Implemented as a
    growable int array indexed by tid; missing entries are 0. *)

type t = { mutable data : int array }

let create () = { data = Array.make 8 0 }

let get t tid = if tid < Array.length t.data then t.data.(tid) else 0

let ensure t tid =
  if tid >= Array.length t.data then t.data <- Dense.grow t.data tid ~floor:0 (fun () -> 0)

let set t tid v =
  ensure t tid;
  t.data.(tid) <- v

let incr t tid = set t tid (get t tid + 1)

let copy t = { data = Array.copy t.data }

(** [join a b] merges [b] into [a] (pointwise max). *)
let join a b =
  ensure a (Array.length b.data - 1);
  Array.iteri (fun i v -> if v > a.data.(i) then a.data.(i) <- v) b.data

(** [leq a b]: does every entry of [a] appear ≤ the entry in [b]?  This
    is the happens-before test for full clocks. *)
let leq a b =
  let n = Array.length a.data in
  let rec go i = i >= n || (a.data.(i) <= get b i && go (i + 1)) in
  go 0

(** An access stamped (tid, clk) happened-before the current state of
    clock [vc] iff [vc] has seen at least [clk] of thread [tid]. *)
let ordered_before ~tid ~clk vc = clk <= get vc tid

(** Pointwise equality — the logical clock contents, independent of
    the backing arrays' growth histories. *)
let equal a b =
  let n = max (Array.length a.data) (Array.length b.data) in
  let rec go i = i >= n || (get a i = get b i && go (i + 1)) in
  go 0

(* Render the {e logical} entries only: the backing array over-allocates
   on growth, so printing it raw would render two pointwise-equal
   clocks differently depending on how they grew.  Trailing zeros are
   capacity padding (a missing entry and a zero entry are the same
   clock value), so the print frontier is the last non-zero entry. *)
let pp ppf t =
  let n = ref (Array.length t.data) in
  while !n > 0 && t.data.(!n - 1) = 0 do
    decr n
  done;
  Fmt.pf ppf "[%a]"
    Fmt.(array ~sep:(any ",") int)
    (Array.sub t.data 0 !n)
