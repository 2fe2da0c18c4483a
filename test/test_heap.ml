module Heap = Ppet_digraph.Heap
module Prng = Ppet_digraph.Prng

let test_empty () =
  let h = Heap.create 10 in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h)

let test_insert_pop () =
  let h = Heap.create 10 in
  Heap.insert h 3 2.0;
  Heap.insert h 1 1.0;
  Heap.insert h 2 3.0;
  Alcotest.(check int) "size" 3 (Heap.size h);
  let k, p = Heap.pop_min h in
  Alcotest.(check int) "min key" 1 k;
  Alcotest.(check (float 1e-9)) "min prio" 1.0 p;
  let k, _ = Heap.pop_min h in
  Alcotest.(check int) "next" 3 k;
  let k, _ = Heap.pop_min h in
  Alcotest.(check int) "last" 2 k;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_decrease () =
  let h = Heap.create 5 in
  Heap.insert h 0 10.0;
  Heap.insert h 1 5.0;
  Heap.decrease h 0 1.0;
  let k, p = Heap.pop_min h in
  Alcotest.(check int) "decreased wins" 0 k;
  Alcotest.(check (float 1e-9)) "new prio" 1.0 p

let test_decrease_rejects_increase () =
  let h = Heap.create 5 in
  Heap.insert h 0 1.0;
  Alcotest.check_raises "increase" (Invalid_argument "Heap.decrease: priority increase")
    (fun () -> Heap.decrease h 0 2.0)

let test_insert_duplicate () =
  let h = Heap.create 5 in
  Heap.insert h 0 1.0;
  Alcotest.check_raises "duplicate" (Invalid_argument "Heap.insert: key already present")
    (fun () -> Heap.insert h 0 2.0)

let test_pop_empty () =
  let h = Heap.create 5 in
  Alcotest.check_raises "empty" (Invalid_argument "Heap.pop_min: empty heap")
    (fun () -> ignore (Heap.pop_min h))

let test_mem_priority () =
  let h = Heap.create 5 in
  Heap.insert h 2 4.5;
  Alcotest.(check bool) "mem" true (Heap.mem h 2);
  Alcotest.(check bool) "not mem" false (Heap.mem h 3);
  Alcotest.(check (float 1e-9)) "priority" 4.5 (Heap.priority h 2);
  ignore (Heap.pop_min h);
  Alcotest.(check bool) "gone" false (Heap.mem h 2)

let test_insert_or_decrease () =
  let h = Heap.create 5 in
  let prio = Array.make 5 0.0 in
  let offer p =
    prio.(1) <- p;
    Heap.insert_or_decrease h 1 prio
  in
  offer 5.0;
  offer 3.0;
  offer 9.0;
  Alcotest.(check (float 1e-9)) "kept min" 3.0 (Heap.priority h 1)

let test_clear_reusable () =
  let h = Heap.create 8 in
  Heap.insert h 0 3.0;
  Heap.insert h 5 1.0;
  Heap.insert h 2 2.0;
  Heap.clear h;
  Alcotest.(check int) "emptied" 0 (Heap.size h);
  Alcotest.(check bool) "old key gone" false (Heap.mem h 5);
  (* all keys insertable again after a clear *)
  Heap.insert h 5 7.0;
  Heap.insert h 0 4.0;
  let k, p = Heap.pop_min h in
  Alcotest.(check int) "fresh min key" 0 k;
  Alcotest.(check (float 1e-9)) "fresh min prio" 4.0 p

(* property: popping everything yields priorities in ascending order *)
let prop_heapsort =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.create n in
      List.iteri (fun i p -> Heap.insert h i p) prios;
      let out = List.init n (fun _ -> snd (Heap.pop_min h)) in
      out = List.sort compare prios)

let prop_decrease_key =
  QCheck.Test.make ~name:"random decrease-keys keep heap consistent" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (s1, s2) ->
      let rng = Prng.create (Int64.of_int ((s1 * 1009) + s2)) in
      let n = 30 in
      let h = Heap.create n in
      let best = Array.make n infinity in
      for _ = 1 to 200 do
        let k = Prng.int rng n in
        let p = Prng.float rng 100.0 in
        if Heap.mem h k then begin
          if p < best.(k) then begin
            Heap.decrease h k p;
            best.(k) <- p
          end
        end
        else begin
          Heap.insert h k p;
          best.(k) <- p
        end
      done;
      let prev = ref neg_infinity in
      let sorted = ref true in
      while not (Heap.is_empty h) do
        let k, p = Heap.pop_min h in
        if p < !prev || p <> best.(k) then sorted := false;
        prev := p
      done;
      !sorted)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "insert and pop" `Quick test_insert_pop;
    Alcotest.test_case "decrease key" `Quick test_decrease;
    Alcotest.test_case "decrease rejects increase" `Quick test_decrease_rejects_increase;
    Alcotest.test_case "insert rejects duplicate" `Quick test_insert_duplicate;
    Alcotest.test_case "pop rejects empty" `Quick test_pop_empty;
    Alcotest.test_case "mem and priority" `Quick test_mem_priority;
    Alcotest.test_case "insert_or_decrease keeps min" `Quick test_insert_or_decrease;
    Alcotest.test_case "clear makes the heap reusable" `Quick test_clear_reusable;
    QCheck_alcotest.to_alcotest prop_heapsort;
    QCheck_alcotest.to_alcotest prop_decrease_key;
  ]
