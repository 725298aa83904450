int Total;

void *Worker(void *x) {
    Total = Total + 10;
    return 0;
}

int main() {
    pthread_t t;
    Total = 1;
    pthread_create(&t, 0, Worker, 0);
    pthread_join(t, 0);
    Total = Total + 100;
    return Total;
}
