int Sum;

void *Thread1(void *x) {
    Sum = Sum + 1;
    Sum = Sum + 2;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    Sum = Sum + 3;
    pthread_join(t, 0);
    return Sum;
}
