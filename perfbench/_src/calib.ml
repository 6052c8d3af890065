(* The host's speed, read with a fixed kernel that belongs to the
   benchmark, not the program.  On a shared virtual machine the same
   code runs up to 1.6 times slower for seconds or minutes at a time
   (co-tenants on the physical host), and that swing, not the program,
   decided most of the run-to-run spread of every timing.  Each timing
   is therefore reported scaled to a host on which the kernel takes
   [reference] seconds: a timing made while the kernel ran at [cal]
   seconds is multiplied by [reference /. cal].  The kernel allocates
   nothing, keeps its arrays to itself and is read as a median over
   runs that have brought them back into cache, so a change to the
   program cannot move the readings, and moves a scaled timing in the
   same proportion as the raw one. *)

let n = 32768
let passes = 8
let a = Array.init n (fun i -> float_of_int (i land 255) *. 0.01)
let b = Array.init n (fun i -> float_of_int (i land 127) *. 0.02)
let c = Array.make n 0.
let sink = ref 0.

(* Streams three 256 KiB arrays: a multiply-add pass and a square-root
   pass, like the program's elementwise kernels. *)
let kernel () =
  for _ = 1 to passes do
    for i = 0 to n - 1 do
      Array.unsafe_set c i ((Array.unsafe_get a i *. Array.unsafe_get b i) +. 0.5)
    done;
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. Float.sqrt (Array.unsafe_get c i +. 1.)
    done;
    sink := !sink +. !s
  done

let reps = 15

(* Seconds per kernel run: the median of [reps] runs. *)
let measure () = Stats.median (Array.init reps (fun _ -> snd (Clock.time kernel)))

let reference = 1e-3

(* The factor for a timing made between two readings. *)
let scale ~before ~after = reference /. ((before +. after) /. 2.)
