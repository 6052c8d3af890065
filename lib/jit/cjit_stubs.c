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
 *   long kernel(double **bufs, const long *ints, long nest, long lo, long hi);
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
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <stdio.h>
#include <string.h>

extern char **environ;

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
                                value vints, value vnest, value vlo,
                                value vhi)
{
  const functs_cjit_fn *tbl = (const functs_cjit_fn *)Nativeint_val(vtbl);
  const long nbufs = (long)Wosize_val(vbufs);
  const long nints = (long)Wosize_val(vints);
  double *bufs[nbufs > 0 ? nbufs : 1];
  long ints[nints > 0 ? nints : 1];
  for (long i = 0; i < nbufs; i++) bufs[i] = (double *)Field(vbufs, i);
  for (long i = 0; i < nints; i++) ints[i] = Long_val(Field(vints, i));
  return Val_long(tbl[Long_val(vidx)](bufs, ints, Long_val(vnest),
                                      Long_val(vlo), Long_val(vhi)));
}

CAMLprim value functs_cjit_call_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_cjit_call(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6]);
}

/* The GCC target every generated kernel is compiled for (Toolchain.isa):
 * AVX-512F with VL, else AVX2 with FMA, else "default", the compiler's
 * baseline.  AVX-512F is the test gemm_stubs.c's [clones_pick] makes for
 * the GEMM kernel, so a host that runs 512-bit GEMM runs 512-bit JIT
 * kernels too. */
CAMLprim value functs_cjit_host_isa(value unit)
{
  (void)unit;
  const char *isa = "default";
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    isa = "avx512f,avx512vl";
  else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    isa = "avx2,fma";
#endif
  return caml_copy_string(isa);
}

/* Start [/bin/sh -c cmd] as the leader of a new process group, with
 * stdin from /dev/null and stdout/stderr appended to [log]; returns its
 * pid, or -1 when it could not be started.  The [cc] front end runs
 * cc1, as and ld as children of its own, so a compile is cancelled by
 * signalling the whole group: killing [cc] alone would leave cc1
 * running until it finished. */
CAMLprim value functs_cjit_spawn(value vcmd, value vlog)
{
  CAMLparam2(vcmd, vlog);
  char *cmd = caml_stat_strdup(String_val(vcmd));
  char *log = caml_stat_strdup(String_val(vlog));
  char *argv[] = { "/bin/sh", "-c", cmd, NULL };
  posix_spawn_file_actions_t fa;
  posix_spawnattr_t at;
  sigset_t none;
  pid_t pid = -1;
  int rc;
  sigemptyset(&none);
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log, O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawnattr_init(&at);
  posix_spawnattr_setflags(&at, POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGMASK);
  posix_spawnattr_setpgroup(&at, 0);
  posix_spawnattr_setsigmask(&at, &none);
  rc = posix_spawn(&pid, "/bin/sh", &fa, &at, argv, environ);
  posix_spawnattr_destroy(&at);
  posix_spawn_file_actions_destroy(&fa);
  caml_stat_free(cmd);
  caml_stat_free(log);
  CAMLreturn(Val_long(rc == 0 ? (long)pid : -1L));
}
