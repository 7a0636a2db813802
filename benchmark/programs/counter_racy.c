// A racy shared counter: SharC infers the counter is dynamic and
// reports the race at runtime.
//   sharc run examples/minic/counter_racy.c
void worker(int * d) {
    int i;
    for (i = 0; i < 100; i++) {
        *d = *d + 1;
    }
}

void main() {
    int * counter;
    counter = new(int);
    spawn(worker, counter);
    spawn(worker, counter);
    join_all();
    print(*counter);
}
