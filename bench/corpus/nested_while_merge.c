int Jobs;

void *Thread1(void *x) {
    while (Jobs > 0) {
        while (Jobs > 2) {
            Jobs = Jobs - 1;
        }
        Jobs = Jobs - 1;
    }
    return 0;
}

int main() {
    pthread_t t;
    Jobs = 4;
    pthread_create(&t, 0, Thread1, 0);
    Jobs = Jobs + 1;
    pthread_join(t, 0);
    return Jobs;
}
