type t = {
  keys : int array;           (* heap slot -> key *)
  prios : float array;        (* heap slot -> priority *)
  pos : int array;            (* key -> heap slot, or -1 when absent *)
  mutable len : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  {
    keys = Array.make (max capacity 1) (-1);
    prios = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    len = 0;
  }

let is_empty h = h.len = 0

let size h = h.len

let mem h k = k >= 0 && k < Array.length h.pos && h.pos.(k) >= 0

(* Hole-style sifting: carry the displaced entry in registers and write
   it once at its final slot, instead of a three-array swap per level.
   The comparison sequence — and therefore the resulting layout, and
   therefore tie-breaking everywhere downstream — is identical to the
   textbook swap formulation. Every caller has range-checked the key
   and the slot, and slots below [len] hold valid keys, so the loops
   use unchecked accesses. *)
let sift_up h i =
  let keys = h.keys and prios = h.prios and pos = h.pos in
  let k = Array.unsafe_get keys i and p = Array.unsafe_get prios i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prios parent in
    if pp > p then begin
      let pk = Array.unsafe_get keys parent in
      Array.unsafe_set keys !i pk;
      Array.unsafe_set prios !i pp;
      Array.unsafe_set pos pk !i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set prios !i p;
  Array.unsafe_set pos k !i

let sift_down h i =
  let keys = h.keys and prios = h.prios and pos = h.pos and len = h.len in
  let k = Array.unsafe_get keys i and p = Array.unsafe_get prios i in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let smallest = ref !i in
    let sp = ref p in
    if l < len && Array.unsafe_get prios l < !sp then begin
      smallest := l;
      sp := Array.unsafe_get prios l
    end;
    if r < len && Array.unsafe_get prios r < !sp then begin
      smallest := r;
      sp := Array.unsafe_get prios r
    end;
    if !smallest <> !i then begin
      let sk = Array.unsafe_get keys !smallest in
      Array.unsafe_set keys !i sk;
      Array.unsafe_set prios !i !sp;
      Array.unsafe_set pos sk !i;
      i := !smallest
    end
    else continue := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set prios !i p;
  Array.unsafe_set pos k !i

let insert h k p =
  if k < 0 || k >= Array.length h.pos then invalid_arg "Heap.insert: key out of range";
  if h.pos.(k) >= 0 then invalid_arg "Heap.insert: key already present";
  let i = h.len in
  h.keys.(i) <- k;
  h.prios.(i) <- p;
  h.len <- i + 1;
  sift_up h i

let decrease h k p =
  if not (mem h k) then invalid_arg "Heap.decrease: key absent";
  let i = h.pos.(k) in
  if p > h.prios.(i) then invalid_arg "Heap.decrease: priority increase";
  h.prios.(i) <- p;
  sift_up h i

(* One range check and one [pos] lookup serve both branches. The
   priority comes through the caller's key-indexed array because a
   float argument of a call into another module is boxed: this call is
   made for almost every edge a Dijkstra run relaxes. *)
let insert_or_decrease h k prio =
  if k < 0 || k >= Array.length h.pos || k >= Array.length prio then
    invalid_arg "Heap.insert: key out of range";
  let p = Array.unsafe_get prio k in
  let i = Array.unsafe_get h.pos k in
  if i >= 0 then begin
    if p < Array.unsafe_get h.prios i then begin
      Array.unsafe_set h.prios i p;
      sift_up h i
    end
  end
  else begin
    let i = h.len in
    Array.unsafe_set h.keys i k;
    Array.unsafe_set h.prios i p;
    h.len <- i + 1;
    sift_up h i
  end

let pop_min_key h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let k = Array.unsafe_get h.keys 0 in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    Array.unsafe_set h.keys 0 (Array.unsafe_get h.keys last);
    Array.unsafe_set h.prios 0 (Array.unsafe_get h.prios last);
    sift_down h 0
  end;
  Array.unsafe_set h.pos k (-1);
  k

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let p = h.prios.(0) in
  let k = pop_min_key h in
  (k, p)

let clear h =
  for i = 0 to h.len - 1 do
    h.pos.(h.keys.(i)) <- -1
  done;
  h.len <- 0

let priority h k =
  if not (mem h k) then raise Not_found;
  h.prios.(h.pos.(k))
