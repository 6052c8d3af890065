(* The Functs facade: one module, the whole public surface. *)

module Config = Config
module Error = Error
module Session = Session
module Tensor = Functs_tensor.Tensor
module Scalar = Functs_tensor.Scalar
module Shape = Functs_tensor.Shape
module Inplace = Functs_tensor.Inplace
module Tensor_ops = Functs_tensor.Ops
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
module Passes = Functs_core.Passes
module Convert = Functs_core.Convert
module Defunctionalize = Functs_core.Defunctionalize
module Fusion = Functs_core.Fusion
module Codegen = Functs_core.Codegen
module Alias_graph = Functs_core.Alias_graph
module Subgraph = Functs_core.Subgraph
module Compiler_profile = Functs_core.Compiler_profile
module Value = Functs_interp.Value
module Eval = Functs_interp.Eval
module Ast = Functs_frontend.Ast
module Lower = Functs_frontend.Lower
module Pretty = Functs_frontend.Pretty
module Source_parser = Functs_frontend.Source_parser
module Platform = Functs_cost.Platform
module Trace = Functs_cost.Trace
module Workload = Functs_workloads.Workload
module Registry = Functs_workloads.Registry
module Engine = Functs_exec.Engine
module Scheduler = Functs_exec.Scheduler
module Pool = Functs_exec.Pool
module Buffer_plan = Functs_exec.Buffer_plan

(* The serving benchmark filters its JIT kernels through this name; delete
   it at the next change to the benchmark. *)
module Kernel_compile = struct
  let compile = Functs_jit.Jit_emit.emit
end

module Equiv = Functs_exec.Equiv
module Fastops = Functs_exec.Fastops
module Jit = Functs_jit.Jit
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal
module Json = Functs_obs.Json

let init ?base ?getenv () =
  match Config.of_env ?base ?getenv () with
  | Error _ as e -> e
  | Ok cfg ->
      Config.apply cfg;
      Ok cfg

let find_workload name =
  match Registry.find name with
  | Some w -> Ok w
  | None ->
      Error
        (Error.Unknown_workload
           {
             name;
             available =
               List.map
                 (fun (w : Workload.t) -> w.Workload.name)
                 (Registry.all @ Registry.extensions);
           })

let find_profile name =
  match Compiler_profile.find name with
  | Some p -> Ok p
  | None ->
      Error
        (Error.Unknown_profile
           {
             name;
             available =
               List.map
                 (fun (p : Compiler_profile.t) -> p.Compiler_profile.name)
                 Compiler_profile.all;
           })

let compile ?config ?profile ?batch ?seq w =
  Session.create ?config ?profile ?batch ?seq w

let run_once ?config ?profile ?batch ?seq w args =
  match compile ?config ?profile ?batch ?seq w with
  | Error _ as e -> e
  | Ok session ->
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () -> Session.run session args)
