/* shared state for the worker pool */
int Pending;   // jobs not yet picked up
int Done;      /* finished jobs */

/* the worker just drains the queue */
void *Worker(void *arg) {
    // grab everything
    while (Pending > 0) {
        Pending = Pending - 1; // one down
        Done = Done + 1;
    }
    return 0; /* worker exit */
}

int main() {
    pthread_t worker;   // handle
    Pending = 5;
    pthread_create(&worker, 0, Worker, 0);
    /* main also helps out
       (this is the racy part) */
    Done = Done + 1;
    pthread_join(worker, 0);
    return Done; // total
}
