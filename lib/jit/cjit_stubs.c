/* Host-side stubs for the JIT's native kernels.
 *
 * A generated artifact is a plain shared object compiled from standalone
 * C (it includes only <math.h>, never the OCaml runtime headers, so the
 * JIT needs a C compiler but no OCaml toolchain at run time).  It
 * exports three symbols:
 *
 *   const char functs_cjit_header[];   version/digest handshake string
 *   const long functs_cjit_nfns;       number of kernel entry points
 *   functs_cjit_fn const functs_cjit_table[];
 *
 * where each entry point follows the JIT launch ABI:
 *
 *   long kernel(double **bufs, const long *ints, long stmt, long lo, long hi);
 *
 * The return value is a guard status: 0 on success, nonzero when a
 * dynamically-indexed read (a free scalar in the index) would have gone
 * out of bounds — the kernel refuses the whole launch range and the
 * driver maps the status to Jit.Fallback.
 *
 * functs_cjit_load dlopens an artifact, validates the handshake, and hands
 * the table back as a nativeint (0 on any failure; the message is kept for
 * functs_cjit_error).  functs_cjit_call unpacks the OCaml-side launch
 * arguments into raw C views: an OCaml float array is a flat double payload
 * (the empty-array Atom included), so Field(bufs, i) casts directly, while
 * OCaml int array elements are tagged and must go through Long_val.  The
 * call allocates nothing on the OCaml heap, so it is declared [@@noalloc]
 * on the OCaml side and needs no CAMLparam bookkeeping.
 *
 * Handles are never dlclosed: loaded code stays valid for the process
 * lifetime.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <dlfcn.h>
#include <stdio.h>
#include <string.h>

typedef long (*functs_cjit_fn)(double **, const long *, long, long, long);

static char cjit_err[512];

CAMLprim value functs_cjit_error(value unit)
{
  CAMLparam1(unit);
  CAMLreturn(caml_copy_string(cjit_err));
}

CAMLprim value functs_cjit_load(value vpath, value vheader, value vnfns)
{
  CAMLparam3(vpath, vheader, vnfns);
  cjit_err[0] = '\0';
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *e = dlerror();
    snprintf(cjit_err, sizeof(cjit_err), "dlopen: %s", e ? e : "unknown");
    CAMLreturn(caml_copy_nativeint(0));
  }
  const char *hdr = (const char *)dlsym(h, "functs_cjit_header");
  const long *nfns = (const long *)dlsym(h, "functs_cjit_nfns");
  void *tbl = dlsym(h, "functs_cjit_table");
  if (hdr == NULL || nfns == NULL || tbl == NULL) {
    snprintf(cjit_err, sizeof(cjit_err), "missing functs_cjit_* symbols");
    dlclose(h);
    CAMLreturn(caml_copy_nativeint(0));
  }
  if (strcmp(hdr, String_val(vheader)) != 0) {
    snprintf(cjit_err, sizeof(cjit_err), "header mismatch: artifact %.200s",
             hdr);
    dlclose(h);
    CAMLreturn(caml_copy_nativeint(0));
  }
  if (*nfns != Long_val(vnfns)) {
    snprintf(cjit_err, sizeof(cjit_err),
             "arity mismatch: artifact has %ld kernels, expected %ld", *nfns,
             (long)Long_val(vnfns));
    dlclose(h);
    CAMLreturn(caml_copy_nativeint(0));
  }
  CAMLreturn(caml_copy_nativeint((intnat)tbl));
}

CAMLprim value functs_cjit_call(value vtbl, value vidx, value vbufs,
                                value vints, value vstmt, value vlo,
                                value vhi)
{
  const functs_cjit_fn *tbl = (const functs_cjit_fn *)Nativeint_val(vtbl);
  const long nbufs = (long)Wosize_val(vbufs);
  const long nints = (long)Wosize_val(vints);
  double *bufs[nbufs > 0 ? nbufs : 1];
  long ints[nints > 0 ? nints : 1];
  for (long i = 0; i < nbufs; i++) bufs[i] = (double *)Field(vbufs, i);
  for (long i = 0; i < nints; i++) ints[i] = Long_val(Field(vints, i));
  return Val_long(tbl[Long_val(vidx)](bufs, ints, Long_val(vstmt),
                                      Long_val(vlo), Long_val(vhi)));
}

CAMLprim value functs_cjit_call_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_cjit_call(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6]);
}

/* The ISA every generated kernel targets: AVX2 when the running CPU has
 * it, else the compiler's baseline.  This is the test an ifunc resolver
 * over an ("avx2", "default") clone pair makes, so every host gets the
 * instruction set its resolver would have picked. */
CAMLprim value functs_cjit_host_avx2(value unit)
{
  (void)unit;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("avx2"));
#else
  return Val_false;
#endif
}
