(* The host-speed calibration kernel of the benchmark.  It uses the
   standard library only, and Unix for the clock, and runs in a process
   of its own with the default GC settings, so the code under test
   cannot change it: [Hashtbl] counts over 300k pseudo-random keys,
   memory-bound like the simulation harness's ground truth.

   It times one pass for every line it reads on standard input and
   prints the pass's seconds, until end of input.  One untimed pass
   first grows its heap. *)

let pass () =
  Gc.full_major ();
  let counts = Hashtbl.create 16 in
  let x = ref 12345 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let key = !x land 0xfffff in
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Unix.gettimeofday () -. t0

let () =
  ignore (pass ());
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.17g\n%!" (pass ())
    done
  with End_of_file -> ()
