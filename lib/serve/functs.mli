(** The single public surface of the project.

    Downstream code — the CLI, the bench harness, the experiment
    harness, external users — opens (or dot-qualifies) [Functs] and
    nothing else.  The facade re-exports the serving layer defined in
    this library ({!Config}, {!Error}, {!Session}) and
    aliases every lower layer so no [functs_*] library needs to appear
    in a consumer's dune stanza:

    {v
    let cfg   = Result.get_ok (Functs.init ())
    let w     = Result.get_ok (Functs.find_workload "lstm")
    let sess  = Result.get_ok (Functs.compile ~config:cfg ~batch:8 ~seq:16 w)
    let reply = Functs.Session.run sess (w.Functs.Workload.inputs ~batch:8 ~seq:16)
    v}

    A session serves the signature it compiled; a request of another
    shape is refused at submit ([examples/serve_quickstart.ml]).

    Errors are structured {!Error.t} values, never raised [Failure]s. *)

(* --- the serving layer (this library) --- *)

module Config = Config
module Error = Error
module Session = Session

(* --- tensors --- *)

module Tensor = Functs_tensor.Tensor
module Scalar = Functs_tensor.Scalar
module Shape = Functs_tensor.Shape
module Inplace = Functs_tensor.Inplace
module Tensor_ops = Functs_tensor.Ops

(* --- IR --- *)

module Graph = Functs_ir.Graph
module Builder = Functs_ir.Builder
module Op = Functs_ir.Op
module Dtype = Functs_ir.Dtype
module Printer = Functs_ir.Printer
module Ir_parser = Functs_ir.Parser
module Dot = Functs_ir.Dot
module Shape_infer = Functs_ir.Shape_infer
module Verifier = Functs_ir.Verifier
module Cse = Functs_ir.Cse
module Dce = Functs_ir.Dce
module Fold = Functs_ir.Fold
module Dominance = Functs_ir.Dominance

(* --- functionalization / optimization passes --- *)

module Passes = Functs_core.Passes
module Convert = Functs_core.Convert
module Defunctionalize = Functs_core.Defunctionalize
module Fusion = Functs_core.Fusion
module Codegen = Functs_core.Codegen
module Alias_graph = Functs_core.Alias_graph
module Subgraph = Functs_core.Subgraph
module Compiler_profile = Functs_core.Compiler_profile

(* --- interpreter (reference semantics) --- *)

module Value = Functs_interp.Value
module Eval = Functs_interp.Eval

(* --- frontend --- *)

module Ast = Functs_frontend.Ast
module Lower = Functs_frontend.Lower
module Pretty = Functs_frontend.Pretty
module Source_parser = Functs_frontend.Source_parser

(* --- cost model --- *)

module Platform = Functs_cost.Platform
module Trace = Functs_cost.Trace

(* --- workloads --- *)

module Workload = Functs_workloads.Workload
module Registry = Functs_workloads.Registry

(* --- execution engine --- *)

module Engine = Functs_exec.Engine
module Scheduler = Functs_exec.Scheduler
module Pool = Functs_exec.Pool
module Buffer_plan = Functs_exec.Buffer_plan

(** The kernels the C JIT accepts, under the name the serving benchmark
    uses; delete it at the next change to the benchmark. *)
module Kernel_compile : sig
  val compile :
    Functs_core.Codegen.kernel ->
    shapes:Functs_ir.Shape_infer.result ->
    (Functs_jit.Jit_emit.emitted, string) result
end

module Equiv = Functs_exec.Equiv
module Fastops = Functs_exec.Fastops
module Jit = Functs_jit.Jit

(* --- observability --- *)

module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal
module Json = Functs_obs.Json

(* --- entry points --- *)

val init :
  ?base:Config.t ->
  ?getenv:(string -> string option) ->
  unit ->
  (Config.t, Error.t) result
(** Parse the [FUNCTS_*] environment overlay on top of [base] (default
    {!Config.default}) and {!Config.apply} the result process-wide.
    Call once at program startup; the returned config is what
    [?config]-taking entry points should receive. *)

val find_workload : string -> (Workload.t, Error.t) result
(** Registry lookup with a structured error listing the available
    names (builtin and extension) on a miss. *)

val find_profile : string -> (Compiler_profile.t, Error.t) result
(** Same, over compiler profiles. *)

val compile :
  ?config:Config.t ->
  ?profile:Compiler_profile.t ->
  ?batch:int ->
  ?seq:int ->
  Workload.t ->
  (Session.t, Error.t) result
(** Functionalize and compile [w] once (through the shape-keyed compile
    cache) and return a live session whose dispatcher is already
    running.  Alias of {!Session.create}. *)

val run_once :
  ?config:Config.t ->
  ?profile:Compiler_profile.t ->
  ?batch:int ->
  ?seq:int ->
  Workload.t ->
  Value.t list ->
  (Value.t list, Error.t) result
(** One-shot convenience: compile, run [args] through the session,
    close.  For repeated runs keep the {!Session.t} from {!compile}
    instead — that is the whole point of the session layer. *)
