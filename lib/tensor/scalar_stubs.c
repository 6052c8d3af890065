/* Scalar.exp, Scalar.sigmoid and Scalar.tanh: the shared functions of
 * functs_exp.h, which the per-node leaves (lib/exec/gemm_stubs.c) run
 * vectorised, so the reference interpreter and those leaves agree bit
 * for bit.  Native code calls the unboxed entries directly ([@@unboxed]
 * [@@noalloc]).
 *
 * On a CPU with FMA the entries run a build with FMA instructions,
 * picked once at load; elsewhere each fma() is a libm call.  Both give
 * the same bits (fma rounds once either way); the FMA build is about
 * four times faster. */
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#include "functs_exp.h"

static double exp_base(double x) { return functs_exp(x); }
static double sigmoid_base(double x) { return functs_sigmoid(x); }
static double tanh_base(double x) { return functs_tanh(x); }

static double (*exp_fn)(double) = exp_base;
static double (*sigmoid_fn)(double) = sigmoid_base;
static double (*tanh_fn)(double) = tanh_base;

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC target("fma")
static double exp_fma(double x) { return functs_exp(x); }
static double sigmoid_fma(double x) { return functs_sigmoid(x); }
static double tanh_fma(double x) { return functs_tanh(x); }
#pragma GCC pop_options

__attribute__((constructor)) static void fma_pick(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("fma")) {
    exp_fn = exp_fma;
    sigmoid_fn = sigmoid_fma;
    tanh_fn = tanh_fma;
  }
}
#endif

double functs_exp_unboxed(double x) { return exp_fn(x); }
double functs_sigmoid_unboxed(double x) { return sigmoid_fn(x); }
double functs_tanh_unboxed(double x) { return tanh_fn(x); }

CAMLprim value functs_exp_byte(value x)
{
  return caml_copy_double(exp_fn(Double_val(x)));
}

CAMLprim value functs_sigmoid_byte(value x)
{
  return caml_copy_double(sigmoid_fn(Double_val(x)));
}

CAMLprim value functs_tanh_byte(value x)
{
  return caml_copy_double(tanh_fn(Double_val(x)));
}
