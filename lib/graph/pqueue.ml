(* Binary min-heap over parallel arrays. Priorities live in a bare
   [float array] (unboxed storage, so a comparison is two float loads,
   never a pointer chase), stamps and values in their own arrays. The
   A*-based router pushes hundreds of thousands of states per circuit;
   the earlier record-per-entry heap allocated a boxed-float record per
   push and chased entry pointers on every sift comparison. Ordering is
   unchanged: min priority first, FIFO among equal priorities via the
   monotonically increasing stamp. *)

type 'a t = {
  mutable prio : float array;
  mutable stamp : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_stamp : int;
}

let create () =
  { prio = [||]; stamp = [||]; value = [||]; size = 0; next_stamp = 0 }

let is_empty q = q.size = 0
let size q = q.size

(* Strict (prio, stamp) lexicographic order against an explicit key —
   the sifts below keep the moving element in locals (hole insertion)
   instead of exchanging three array slots per level, which performs the
   same comparisons in the same order and half the stores. *)
let key_less q ~prio ~stamp i =
  (* lint: float-discipline — an exact tie falls through to the FIFO stamp; a NaN key compares false both ways *)
  prio < q.prio.(i) || (prio = q.prio.(i) && stamp < q.stamp.(i))

let slot_less q i j =
  q.prio.(i) < q.prio.(j)
  (* lint: float-discipline — an exact tie falls through to the FIFO stamp; a NaN key compares false both ways *)
  || (q.prio.(i) = q.prio.(j) && q.stamp.(i) < q.stamp.(j))

(* Pops only shrink [size]; slots past it keep their last value until
   overwritten by a later push (exactly as the record heap kept popped
   entries in its backing array), so the grow seed below is only ever
   read into dead slots. *)
let grow q v =
  let cap = Array.length q.prio in
  if q.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let prio = Array.make ncap 0.0 in
    let stamp = Array.make ncap 0 in
    let value = Array.make ncap v in
    Array.blit q.prio 0 prio 0 q.size;
    Array.blit q.stamp 0 stamp 0 q.size;
    Array.blit q.value 0 value 0 q.size;
    q.prio <- prio;
    q.stamp <- stamp;
    q.value <- value
  end

let push q prio value =
  grow q value;
  let stamp = q.next_stamp in
  q.next_stamp <- stamp + 1;
  q.size <- q.size + 1;
  (* Sift up with a hole: parents slide down until the insertion point. *)
  let i = ref (q.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    key_less q ~prio ~stamp parent
  do
    let parent = (!i - 1) / 2 in
    q.prio.(!i) <- q.prio.(parent);
    q.stamp.(!i) <- q.stamp.(parent);
    q.value.(!i) <- q.value.(parent);
    i := parent
  done;
  q.prio.(!i) <- prio;
  q.stamp.(!i) <- stamp;
  q.value.(!i) <- value

let pop q =
  if q.size = 0 then None
  else begin
    let prio = q.prio.(0) and value = q.value.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      (* Sift the displaced last element down with a hole: children
         bubble up until its slot is found. *)
      let mp = q.prio.(q.size)
      and ms = q.stamp.(q.size)
      and mv = q.value.(q.size) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.size && not (key_less q ~prio:mp ~stamp:ms l) then
          smallest := l;
        if
          r < q.size
          &&
          (if !smallest = !i then not (key_less q ~prio:mp ~stamp:ms r)
           else slot_less q r !smallest)
        then smallest := r;
        if !smallest = !i then continue := false
        else begin
          q.prio.(!i) <- q.prio.(!smallest);
          q.stamp.(!i) <- q.stamp.(!smallest);
          q.value.(!i) <- q.value.(!smallest);
          i := !smallest
        end
      done;
      q.prio.(!i) <- mp;
      q.stamp.(!i) <- ms;
      q.value.(!i) <- mv
    end;
    Some (prio, value)
  end

let clear q =
  q.prio <- [||];
  q.stamp <- [||];
  q.value <- [||];
  q.size <- 0
