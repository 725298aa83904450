int Global;

void *Thread1(void *x) {
    Global = 42;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    Global = 43;
    pthread_join(t, 0);
    return Global;
}
