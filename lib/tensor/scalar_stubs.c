/* Scalar.exp and Scalar.sigmoid: the shared functions of functs_exp.h,
 * which the per-node leaves (lib/exec/gemm_stubs.c) run vectorised, so
 * the reference interpreter and those leaves agree bit for bit.  Native
 * code calls the unboxed entries directly ([@@unboxed] [@@noalloc]). */
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#include "functs_exp.h"

double functs_exp_unboxed(double x) { return functs_exp(x); }
double functs_sigmoid_unboxed(double x) { return functs_sigmoid(x); }

CAMLprim value functs_exp_byte(value x)
{
  return caml_copy_double(functs_exp(Double_val(x)));
}

CAMLprim value functs_sigmoid_byte(value x)
{
  return caml_copy_double(functs_sigmoid(Double_val(x)));
}
