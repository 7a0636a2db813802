// The same counter with its sharing strategy declared: protected by
// a lock. SharC checks the lock is held at every access.
//   sharc run examples/minic/counter_locked.c
struct ctr {
    mutex m;
    int locked(m) v;
};

void worker(struct ctr * c) {
    int i;
    for (i = 0; i < 100; i++) {
        mutex_lock(&c->m);
        c->v = c->v + 1;
        mutex_unlock(&c->m);
    }
}

void main() {
    struct ctr * c = new(struct ctr);
    spawn(worker, c);
    spawn(worker, c);
    join_all();
    mutex_lock(&c->m);
    print(c->v);
    mutex_unlock(&c->m);
}
