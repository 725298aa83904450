int State;

void *Thread1(void *x) {
    return State;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    State = 7;
    pthread_join(t, 0);
    return 0;
}
