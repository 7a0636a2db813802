// A hundred workers alive at once: past the 63 thread ids one bitmap
// shadow word names, so thread ids 64-101 sit in a second shard word.
// Each worker bumps a cell of its own, except
// the last two (thread ids 100 and 101), which share one: SharC
// reports that write/write race and nothing else.
//   sharc run examples/minic/fleet.c
void worker(int * d) {
    int i;
    for (i = 0; i < 200; i++) {
        *d = *d + 1;
    }
}

void main() {
    int * cell;
    int i;
    for (i = 0; i < 98; i++) {
        cell = new(int);
        spawn(worker, cell);
    }
    cell = new(int);
    spawn(worker, cell);
    spawn(worker, cell);
    join_all();
}
