// NOT RUN by the benchmark. Kept for the correctness PR that fixes it.
//
// The VM recycles a thread id when its thread exits (`free_tids`) but
// never removes the dead `Thread` record, and it wakes mutex and
// condvar waiters with `threads.iter().position(|t| t.id == w)`
// (crates/interp/src/vm.rs, `unlock` and `wake_from_cond`). Once an id
// has been reused, that lookup finds the dead record first: the dead
// thread is marked Runnable, the scheduler picks it, and the VM panics
// in `frame()` ("running thread has a frame").
//
// Repro: spawn and join one worker (its id, 2, goes back to the free
// list), then spawn two workers that contend on a locked(m) counter.
// The first of them reuses id 2; as soon as it blocks on the mutex and
// is woken by id, the VM panics.
//   sharc run benchmark/programs/known-bug-tid-reuse.c --seed 1
//
// This is why benchmark/src/gen_minic.rs spawns every thread that can
// block on a mutex before any thread exits (see README, "Generator
// constraint").
struct ctr {
    mutex m;
    int locked(m) v;
};

void once(int * d) {
    *d = 1;
}

void worker(struct ctr * c) {
    int i;
    for (i = 0; i < 200; i++) {
        mutex_lock(&c->m);
        c->v = c->v + 1;
        mutex_unlock(&c->m);
    }
}

void main() {
    struct ctr * c = new(struct ctr);
    int * p;
    int t;
    p = new(int);
    t = spawn(once, p);
    join(t);
    spawn(worker, c);
    spawn(worker, c);
    join_all();
    mutex_lock(&c->m);
    print(c->v);
    mutex_unlock(&c->m);
}
