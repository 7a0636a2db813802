// Ownership transfer through a locked slot, with sharing casts on
// both sides — the paper's producer/consumer idiom (§2.1).
//   sharc run examples/minic/handoff.c
struct chan {
    mutex m;
    cond cv;
    int *locked(m) slot;
};

void consumer(struct chan * c) {
    int private * d;
    int got;
    got = 0;
    while (got < 10) {
        mutex_lock(&c->m);
        while (c->slot == NULL)
            cond_wait(&c->cv, &c->m);
        d = SCAST(int private *, c->slot);
        cond_signal(&c->cv);
        mutex_unlock(&c->m);
        // The consumer owns the buffer now: modify, then report.
        *d = *d + 1;
        print(*d);
        free(d);
        got = got + 1;
    }
}

void main() {
    struct chan * c = new(struct chan);
    int private * b;
    int i;
    spawn(consumer, c);
    for (i = 0; i < 10; i++) {
        b = new(int private);
        *b = i * i;
        mutex_lock(&c->m);
        while (c->slot)
            cond_wait(&c->cv, &c->m);
        c->slot = SCAST(int locked(c->m) *, b);
        cond_signal(&c->cv);
        mutex_unlock(&c->m);
    }
    join_all();
}
