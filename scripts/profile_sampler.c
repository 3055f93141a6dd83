/*
 * SIGPROF PC sampler, LD_PRELOADed by scripts/profile_layers.sh.
 *
 * On ITIMER_PROF (the process's CPU time) it records the interrupted
 * PC. At exit it writes one line per sample to pcs.<pid> in the
 * working directory: the PC as an offset into the main executable
 * (what `addr2line -e` takes, PIE or not), or "-" for a PC outside it
 * (libc, libstdc++, the loader). Unlike a gprof build it needs no
 * instrumentation, so inlined code (the ring index math, the rank
 * compare) keeps its own source lines.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
#define MAX_SEGMENTS 8

static uintptr_t pcs[MAX_SAMPLES];
static unsigned long taken;

static void
on_prof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
#if defined(__x86_64__)
    pcs[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pcs[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.pc;
#else
#error "profile_sampler.c: no PC register for this architecture"
#endif
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    /* 1 ms asked; the kernel's CPU-time tick bounds the real rate. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* The executable segments of the main program, the first object. */
struct exe
{
    uintptr_t bias;
    uintptr_t lo[MAX_SEGMENTS], hi[MAX_SEGMENTS];
    int n;
};

static int
find_exe(struct dl_phdr_info *info, size_t size, void *arg)
{
    struct exe *e = arg;
    (void)size;
    e->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum && e->n < MAX_SEGMENTS; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        e->lo[e->n] = info->dlpi_addr + ph->p_vaddr;
        e->hi[e->n++] = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
    }
    return 1;
}

__attribute__((destructor)) static void
stop(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);
    struct exe e;
    memset(&e, 0, sizeof(e));
    dl_iterate_phdr(find_exe, &e);

    char path[64];
    snprintf(path, sizeof(path), "pcs.%d", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; ++i) {
        int inside = 0;
        for (int s = 0; s < e.n; ++s)
            inside |= pcs[i] >= e.lo[s] && pcs[i] < e.hi[s];
        if (inside)
            fprintf(out, "%lx\n", (unsigned long)(pcs[i] - e.bias));
        else
            fputs("-\n", out);
    }
    fclose(out);
}
