// Three sharing shapes, side by side, for the elision pass:
//   sharc run examples/minic/elision.c --explain-elision
// A private loop (its read check collapsed into the write), a
// lock-dominated region (its lock checks stay, one log lookup each),
// and an escaping counterexample (the leaked pointer keeps its checks).
int dynamic * leak;

struct ctr {
    mutex m;
    int locked(m) v;
};

void private_loop(int * d) {
    int i;
    for (i = 0; i < 100; i++) {
        *d = *d + 1;
    }
}

void locked_region(struct ctr * c) {
    mutex_lock(&c->m);
    c->v = c->v + 1;
    mutex_unlock(&c->m);
}

void escaping(int * d) {
    leak = d;
    *d = 7;
}

void main() {
    int * p;
    struct ctr * c;
    int * q;
    int t;
    p = new(int);
    t = spawn(private_loop, p);
    join(t);
    c = new(struct ctr);
    t = spawn(locked_region, c);
    join(t);
    q = new(int);
    t = spawn(escaping, q);
    join(t);
}
